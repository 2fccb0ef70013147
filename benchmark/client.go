package main

import (
	"context"
	"fmt"
	"slices"

	"aqverify/internal/backend"
	"aqverify/internal/core"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/wire"
)

// client is one load goroutine's verifying query issuer.
type client struct {
	b   backend.Backend
	pub core.PublicParams
	// tamper, when set, corrupts a received payload ahead of the verify
	// step — the failure-injection hook of the correctness gate's test.
	tamper func(raw []byte)
	checks []answered // the 1-in-64 sample held back for the oracle
}

// answered is one verified answer kept for the oracle: the query, the
// records the client accepted and the table they must equal a
// brute-force execution over.
type answered struct {
	tbl  record.Table
	q    query.Query
	recs []record.Record
}

// oracleEvery is the deterministic sampling stride of the oracle check.
const oracleEvery = 64

// call issues qs as one exchange — POST /query for a single query, POST
// /query/batch otherwise — and returns the verified answers and the
// payload bytes received. Untraced, that is backend.WithVerify and
// nothing else. With a tracer (or a tamper hook) the client does by
// hand exactly what WithVerify does, split at the public-function
// boundaries: fetch the raw answers, wire.DecodeIFMH each and check the
// echoed query, core.Verify each.
func (c *client) call(ctx context.Context, qs []query.Query, tr *tracer, parent, req uint64) ([]backend.Answer, int, error) {
	if tr == nil && c.tamper == nil {
		return c.exchange(ctx, qs, backend.WithVerify(c.pub), backend.WithWorkers(1))
	}
	sp := tr.begin(parent, req, "transport.exchange")
	answers, bytes, err := c.exchange(ctx, qs)
	tr.end(sp)
	if err != nil {
		return nil, bytes, err
	}
	if c.tamper != nil {
		c.tamper(answers[0].Raw)
	}

	sp = tr.begin(parent, req, "wire.decode")
	decoded := make([]*core.Answer, len(qs))
	for i := range answers {
		if decoded[i], err = wire.DecodeIFMH(answers[i].Raw); err != nil {
			break
		}
		if !query.Equal(qs[i], decoded[i].Query) {
			err = fmt.Errorf("%w: server answered a different query", core.ErrVerification)
			break
		}
	}
	tr.end(sp)
	if err != nil {
		return nil, bytes, err
	}

	sp = tr.begin(parent, req, "core.verify")
	for i, a := range decoded {
		if err = core.Verify(c.pub, qs[i], a.Records, &a.VO, nil); err != nil {
			break
		}
		answers[i].Records = a.Records
	}
	tr.end(sp)
	if err != nil {
		return nil, bytes, err
	}
	return answers, bytes, nil
}

// exchange runs one HTTP exchange under the given call options and
// sums the payload bytes. Any failed item fails the op.
func (c *client) exchange(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, int, error) {
	var answers []backend.Answer
	if len(qs) == 1 {
		ans, err := c.b.Query(ctx, qs[0], opts...)
		if err != nil {
			return nil, 0, err
		}
		answers = []backend.Answer{ans}
	} else {
		var errs []error
		answers, errs = c.b.QueryBatch(ctx, qs, opts...)
		if i := slices.IndexFunc(errs, func(e error) bool { return e != nil }); i >= 0 {
			return nil, 0, fmt.Errorf("batch item %d: %w", i, errs[i])
		}
	}
	bytes := 0
	for i := range answers {
		bytes += len(answers[i].Raw)
	}
	return answers, bytes, nil
}

// keep holds answer k of op i back for the oracle when i falls on the
// sampling stride.
func (c *client) keep(i int64, tbl record.Table, qs []query.Query, answers []backend.Answer) {
	if i%oracleEvery != 0 {
		return
	}
	k := int(i/oracleEvery) % len(qs)
	c.checks = append(c.checks, answered{tbl: tbl, q: qs[k], recs: answers[k].Records})
}

// oracleMismatches compares every held-back answer record for record
// with the brute-force executor and returns how many differ.
func oracleMismatches(in *inputs, checks []answered) (mismatched int, first error) {
	for _, a := range checks {
		want, err := query.Exec(a.tbl, in.tpl, a.q)
		if err == nil && !sameRecords(want.Records, a.recs) {
			err = fmt.Errorf("verified answer to %v has %d records, the oracle %d, or they differ", a.q, len(a.recs), len(want.Records))
		}
		if err != nil {
			mismatched++
			if first == nil {
				first = err
			}
		}
	}
	return mismatched, first
}

func sameRecords(a, b []record.Record) bool {
	return slices.EqualFunc(a, b, func(x, y record.Record) bool {
		return x.ID == y.ID && slices.Equal(x.Attrs, y.Attrs) && slices.Equal(x.Payload, y.Payload)
	})
}
