package backend

import (
	"context"

	"aqverify/internal/metrics"
	"aqverify/internal/query"
)

// Call is one call's options, resolved once (Resolve) — what the
// drivers apply to answers they produce, and what a wrapping backend,
// one that answers by calling other backends (a transport, a cache, an
// adversary channel, a replica set), applies to answers it did not
// drive. It is a plain value: copy it into workers freely. Only Charge
// (and FinishBatch, which charges) touches the caller's WithCounter
// counter, so only they inherit its contract — the calling goroutine,
// or after a fan-out has joined; Finish writes the scratch counter it
// is handed and may run anywhere. The rest of the kit is in driver.go
// (DriveBatch, One) and describe.go (Epoch, Epochs, Find).
type Call struct {
	workers int
	ctr     *metrics.Counter
	verify  verifyFunc // nil: answers are returned raw
}

// Resolve folds a call's options.
func Resolve(opts []Option) Call {
	var c Call
	for _, opt := range opts {
		opt(&c)
	}
	return c
}

// check applies the call's WithVerify option to one produced answer
// (see Finish for what it leaves in ans). Byte accounting is not its
// job: the Process contract charges the encoded answer for the
// in-process drivers and Finish charges it for answers produced
// elsewhere; adding it here too would double-count. check runs inside
// the pool workers (with per-worker counters merged at the join).
func (c Call) check(q query.Query, ans *Answer, ctr *metrics.Counter) error {
	if c.verify == nil {
		return nil
	}
	recs, err := c.verify(q, ans.Raw, ctr)
	if err != nil {
		*ans = Answer{Shard: ans.Shard, Epoch: ans.Epoch}
		return err
	}
	ans.Records = recs
	return nil
}

// Finish applies the call to one answer produced elsewhere, exactly as
// the drivers finish answers they produced themselves: its bytes are
// charged to scratch and, under WithVerify, it is decoded and verified
// in place at scratch's expense — always from its bytes: records the
// answer already carries are never taken on trust, since whoever
// produced it may not be whoever attached them (an adversary channel
// rewrites Raw under a cache's records). A rejected answer keeps only
// its shard and epoch attribution.
func (c Call) Finish(q query.Query, ans *Answer, scratch *metrics.Counter) error {
	scratch.AddBytes(uint64(len(ans.Raw)))
	return c.check(q, ans, scratch)
}

// FinishBatch is Finish for a buffered exchange's worth of answers —
// one HTTP batch frame, say — with verification fanned out across the
// call's worker pool and the costs charged to the caller's counter.
// answers and errs are parallel to qs and updated in place; indexes
// that already carry an error are left untouched. A canceled context
// stops the pool promptly: the answers it never reached report
// ctx.Err(), attribution kept.
func (c Call) FinishBatch(ctx context.Context, qs []query.Query, answers []Answer, errs []error) {
	var raw metrics.Counter
	answered := make([]int, 0, len(qs))
	for i := range answers {
		if errs[i] == nil {
			raw.AddBytes(uint64(len(answers[i].Raw)))
			answered = append(answered, i)
		}
	}
	c.Charge(raw)
	if c.verify == nil {
		return
	}
	skipped, err := c.each(ctx, len(qs), answered, func(i int, ctr *metrics.Counter) {
		errs[i] = c.check(qs[i], &answers[i], ctr)
	})
	for _, i := range skipped {
		answers[i] = Answer{Shard: answers[i].Shard, Epoch: answers[i].Epoch}
		errs[i] = err
	}
}

// Charge folds scratch counters into the caller's WithCounter counter
// (a no-op when the call carries none).
func (c Call) Charge(scratch ...metrics.Counter) {
	for i := range scratch {
		c.ctr.Add(scratch[i])
	}
}

// ReplaceCounter returns opts with ctr as the call's counter; every
// other option forwards unchanged. It is how a wrapper re-dispatches
// one logical call as several concurrent ones without breaking the
// WithCounter contract: each launch writes a private counter, and the
// wrapper Charges them — every shard's, for a fanout — after the join.
func ReplaceCounter(opts []Option, ctr *metrics.Counter) []Option {
	return append(opts[:len(opts):len(opts)], WithCounter(ctr))
}
