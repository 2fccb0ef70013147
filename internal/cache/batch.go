package cache

import (
	"context"
	"sync"

	"aqverify/internal/backend"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/wire"
)

// classified is one batch's split against the cache: one slot per item
// — its key and, when it was found cached, the entry — the flights this
// batch leads (with every duplicate index that shares the key), and the
// indexes waiting on foreign flights.
type classified struct {
	slots []slot
	led   []*ledFlight
	wait  []waiter
}

type slot struct {
	k   akey
	e   entry
	hit bool
}

type waiter struct {
	i  int
	fl *flight
}

type ledFlight struct {
	k    akey
	fl   *flight
	idxs []int // batch indexes answered by this flight; idxs[0] is led
}

// classify walks the batch once under one pin: duplicates of a led key
// attach to its flight, cached items are hits, the rest either lead a
// new flight or wait on a foreign one.
func (c *Cache) classify(qs []query.Query) classified {
	cl := classified{slots: make([]slot, len(qs))}
	pin := c.pin()
	var byKey map[akey]*ledFlight // made by the first led flight: a batch of hits needs none
	for i, q := range qs {
		k := akey{epoch: pin, q: string(wire.EncodeQuery(q))}
		cl.slots[i].k = k
		if lf, ok := byKey[k]; ok {
			lf.idxs = append(lf.idxs, i)
			continue
		}
		if e, ok := c.answers.get(k); ok {
			c.hit()
			cl.slots[i].e, cl.slots[i].hit = e, true
			continue
		}
		fl, leader := c.flights.join(k)
		if leader {
			c.misses.Add(1)
			lf := &ledFlight{k: k, fl: fl, idxs: []int{i}}
			if byKey == nil {
				byKey = make(map[akey]*ledFlight)
			}
			byKey[k] = lf
			cl.led = append(cl.led, lf)
		} else {
			c.collapses.Add(1)
			cl.wait = append(cl.wait, waiter{i, fl})
		}
	}
	return cl
}

// QueryBatch implements Backend, writing each outcome straight into its
// index. Hits are served on the calling goroutine; the led misses walk
// the inner backend as one QueryBatch, so its shard grouping, worker
// pool and — behind a front — replica failover apply; each wait on
// another batch's flight runs on its own goroutine. The waits start
// before the led batch runs: two batches that each wait on a flight
// the other leads would otherwise deadlock. When nothing waits, no
// goroutine is started. The call's cost folds into the caller's
// counter once, after the join.
func (c *Cache) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	answers, errs := make([]backend.Answer, len(qs)), make([]error, len(qs))
	if err := ctx.Err(); err != nil {
		for i := range qs {
			answers[i], errs[i] = backend.Answer{Shard: wire.ShardNone}, err
		}
		return answers, errs
	}
	call := backend.Resolve(opts)
	cl := c.classify(qs)
	// Private counters, folded after the join: the hits' and the led
	// batch's, then one per foreign flight.
	costs := make([]metrics.Counter, 2+len(cl.wait))
	var wg sync.WaitGroup
	for wi, w := range cl.wait {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctr := &costs[2+wi]
			ans, err := c.await(ctx, call, qs[w.i], cl.slots[w.i].k, w.fl, ctr)
			if foreignCancel(ctx, err) {
				ans, err = c.Query(ctx, qs[w.i], backend.ReplaceCounter(opts, ctr)...)
			}
			answers[w.i], errs[w.i] = ans, err
		}()
	}
	for i, s := range cl.slots {
		if s.hit {
			answers[i], errs[i] = c.serve(call, qs[i], s.k, s.e, &costs[0])
		}
	}
	if len(cl.led) > 0 {
		c.lead(ctx, qs, opts, cl.led, answers, errs, &costs[1])
	}
	wg.Wait()
	call.Charge(costs...)
	return answers, errs
}

// lead walks the batch's led misses on the inner backend as one
// sub-batch, publishes each flight's outcome and fans it out to every
// batch index that shares the key. Duplicate indexes are charged their
// answer bytes — the caller receives that many copies — but not a
// second walk.
func (c *Cache) lead(ctx context.Context, qs []query.Query, opts []backend.Option, led []*ledFlight,
	answers []backend.Answer, errs []error, cost *metrics.Counter) {
	subqs := make([]query.Query, len(led))
	for j, lf := range led {
		subqs[j] = qs[lf.idxs[0]]
	}
	subAnswers, subErrs := c.inner.QueryBatch(ctx, subqs, backend.ReplaceCounter(opts, cost)...)
	for j, lf := range led {
		ans, err := subAnswers[j], subErrs[j]
		c.land(lf.k, lf.fl, ans, err)
		for di, i := range lf.idxs {
			answers[i], errs[i] = ans, err
			if di > 0 && err == nil {
				cost.AddBytes(uint64(len(ans.Raw)))
			}
		}
	}
}
