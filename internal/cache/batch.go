package cache

import (
	"context"
	"fmt"
	"iter"
	"sync"

	"aqverify/internal/backend"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/wire"
)

// classified is one batch's split against the cache: per-item keys,
// the flights this batch leads (with every duplicate index that shares
// the key), and the indexes waiting on foreign flights.
type classified struct {
	pin  uint64
	keys []akey
	led  []*ledFlight
	wait []int
	fls  []*flight // per waiting index
}

type ledFlight struct {
	k    akey
	fl   *flight
	idxs []int // batch indexes answered by this flight; idxs[0] is led
}

// classify walks the batch once under one pin: duplicates of a led key
// attach to its flight, cached items are answered through onHit, the
// rest either lead a new flight or wait on a foreign one.
func (c *Cache) classify(qs []query.Query, onHit func(i int, k akey, e entry)) classified {
	cl := classified{
		pin:  c.pin(),
		keys: make([]akey, len(qs)),
		fls:  make([]*flight, len(qs)),
	}
	byKey := make(map[akey]*ledFlight)
	for i, q := range qs {
		k := akey{epoch: cl.pin, q: string(wire.EncodeQuery(q))}
		cl.keys[i] = k
		if lf, ok := byKey[k]; ok {
			lf.idxs = append(lf.idxs, i)
			continue
		}
		if e, ok := c.answers.get(k); ok {
			c.tally.CacheHit()
			onHit(i, k, e)
			continue
		}
		fl, leader := c.flights.join(k)
		if leader {
			c.tally.CacheMiss()
			lf := &ledFlight{k: k, fl: fl, idxs: []int{i}}
			byKey[k] = lf
			cl.led = append(cl.led, lf)
		} else {
			c.tally.CacheCollapse()
			cl.fls[i] = fl
			cl.wait = append(cl.wait, i)
		}
	}
	return cl
}

// QueryBatch implements Backend. Hits are answered from the cache, the
// led misses walk the inner backend as one sub-batch (so its shard
// grouping and worker pool apply), and items that collapse onto foreign
// flights wait for them. Per-item outcomes land in the tally as they
// resolve; the batch's cost folds into the caller's counter and the
// tally once, at the end.
func (c *Cache) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	answers := make([]backend.Answer, len(qs))
	errs := make([]error, len(qs))
	if len(qs) == 0 {
		return answers, errs
	}
	if err := ctx.Err(); err != nil {
		for i := range qs {
			answers[i] = backend.Answer{Shard: wire.ShardNone}
			errs[i] = err
		}
		return answers, errs
	}
	ci := backend.ResolveOptions(opts...)
	var cost metrics.Counter

	cl := c.classify(qs, func(i int, k akey, e entry) {
		answers[i], errs[i] = c.serve(ci, qs[i], k, e, &cost)
		c.tally.Count(answers[i].Shard, errs[i])
	})

	if len(cl.led) > 0 {
		subqs := make([]query.Query, len(cl.led))
		for j, lf := range cl.led {
			subqs[j] = qs[lf.idxs[0]]
		}
		var sub metrics.Counter
		subAns, subErrs := c.inner.QueryBatch(ctx, subqs, backend.ReplaceCounter(opts, &sub)...)
		cost.Add(sub)
		for j, lf := range cl.led {
			c.settleLed(lf, subAns[j], subErrs[j], answers, errs, &cost)
		}
	}

	for _, i := range cl.wait {
		answers[i], errs[i] = c.awaitFlight(ctx, ci, qs[i], cl.keys[i], cl.fls[i], opts, &cost)
		c.tally.Count(answers[i].Shard, errs[i])
	}

	ci.AddCost(cost)
	c.tally.AddCost(cost)
	return answers, errs
}

// settleLed publishes one led flight's result: cache the success,
// complete the flight, and fan the answer out to every batch index that
// shares the key. Duplicate indexes are charged their answer bytes —
// the caller receives that many copies — but not a second walk.
func (c *Cache) settleLed(lf *ledFlight, ans backend.Answer, err error, answers []backend.Answer, errs []error, cost *metrics.Counter) {
	if err == nil {
		c.answers.put(storeKey(lf.k, ans), entryOf(ans))
	}
	c.flights.complete(lf.k, lf.fl, ans, err)
	for di, i := range lf.idxs {
		if di > 0 && err == nil {
			cost.AddBytes(uint64(len(ans.Raw)))
		}
		answers[i], errs[i] = ans, err
		c.tally.Count(ans.Shard, err)
	}
}

// awaitFlight waits out a foreign flight for one batch item. A foreign
// leader's cancellation is not this call's: if the flight dies of a
// context error while ours is still live, the item retries through the
// full single-query path (and may lead its own flight).
func (c *Cache) awaitFlight(ctx context.Context, ci backend.CallInfo, q query.Query, k akey, fl *flight, opts []backend.Option, cost *metrics.Counter) (backend.Answer, error) {
	select {
	case <-fl.done:
		if fl.err != nil {
			if isCtxError(fl.err) && ctx.Err() == nil {
				return c.queryOne(ctx, ci, q, opts, cost)
			}
			return backend.Answer{Shard: fl.ans.Shard, Epoch: fl.ans.Epoch}, fl.err
		}
		return c.serve(ci, q, k, entryOf(fl.ans), cost)
	case <-ctx.Done():
		return backend.Answer{Shard: wire.ShardNone}, ctx.Err()
	}
}

// QueryStream implements Backend. Cached items are yielded first,
// without waiting on any walk; led misses stream off the inner backend
// and are yielded as they land; collapsed items are yielded as their
// foreign flights resolve. Breaking out of the iteration cancels the
// inner stream, completes this call's unfinished flights with the
// cancellation (waiters elsewhere retry them), and still settles all
// cost accounting. Item order is not index order.
func (c *Cache) QueryStream(ctx context.Context, qs []query.Query, opts ...backend.Option) iter.Seq2[int, backend.BatchResult] {
	return func(yield func(int, backend.BatchResult) bool) {
		if len(qs) == 0 {
			return
		}
		ci := backend.ResolveOptions(opts...)
		var cost metrics.Counter
		defer func() {
			ci.AddCost(cost)
			c.tally.AddCost(cost)
		}()
		if err := ctx.Err(); err != nil {
			for i := range qs {
				if !yield(i, backend.BatchResult{Answer: backend.Answer{Shard: wire.ShardNone}, Err: err}) {
					return
				}
			}
			return
		}

		type hit struct {
			i int
			k akey
			e entry
		}
		var hits []hit
		cl := c.classify(qs, func(i int, k akey, e entry) {
			hits = append(hits, hit{i: i, k: k, e: e})
		})

		ctx, cancel := context.WithCancel(ctx)

		// Producers write per-goroutine counters, merged after the join;
		// gctrs[0] belongs to the inner-stream goroutine. Cancel before
		// joining, so an early break doesn't wait out the inner stream.
		gctrs := make([]metrics.Counter, 1+len(cl.wait))
		var wg sync.WaitGroup
		defer func() {
			cancel()
			wg.Wait()
			for i := range gctrs {
				cost.Add(gctrs[i])
			}
		}()

		// out is sized for every pending send, so producers never block
		// on a consumer that stopped yielding.
		type item struct {
			i   int
			ans backend.Answer
			err error
		}
		pending := len(cl.wait)
		for _, lf := range cl.led {
			pending += len(lf.idxs)
		}
		out := make(chan item, pending)

		if len(cl.led) > 0 {
			subqs := make([]query.Query, len(cl.led))
			for j, lf := range cl.led {
				subqs[j] = qs[lf.idxs[0]]
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				completed := make([]bool, len(cl.led))
				for j, r := range c.inner.QueryStream(ctx, subqs, backend.ReplaceCounter(opts, &gctrs[0])...) {
					lf := cl.led[j]
					if r.Err == nil {
						c.answers.put(storeKey(lf.k, r.Answer), entryOf(r.Answer))
					}
					c.flights.complete(lf.k, lf.fl, r.Answer, r.Err)
					completed[j] = true
					for di, i := range lf.idxs {
						if di > 0 && r.Err == nil {
							gctrs[0].AddBytes(uint64(len(r.Answer.Raw)))
						}
						out <- item{i: i, ans: r.Answer, err: r.Err}
					}
				}
				// An inner stream normally yields every index; if it ended
				// early (our cancel, or a dying transport), the leftover
				// flights must still complete or foreign waiters hang.
				for j, done := range completed {
					if done {
						continue
					}
					err := ctx.Err()
					if err == nil {
						err = fmt.Errorf("cache: inner stream ended without answering")
					}
					lf := cl.led[j]
					ans := backend.Answer{Shard: wire.ShardNone}
					c.flights.complete(lf.k, lf.fl, ans, err)
					for _, i := range lf.idxs {
						out <- item{i: i, ans: ans, err: err}
					}
				}
			}()
		}

		for wi, i := range cl.wait {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ans, err := c.awaitFlight(ctx, ci, qs[i], cl.keys[i], cl.fls[i], opts, &gctrs[1+wi])
				out <- item{i: i, ans: ans, err: err}
			}()
		}

		for _, h := range hits {
			ans, err := c.serve(ci, qs[h.i], h.k, h.e, &cost)
			c.tally.Count(ans.Shard, err)
			if !yield(h.i, backend.BatchResult{Answer: ans, Err: err}) {
				return
			}
		}
		for n := 0; n < pending; n++ {
			it := <-out
			c.tally.Count(it.ans.Shard, it.err)
			if !yield(it.i, backend.BatchResult{Answer: it.ans, Err: it.err}) {
				return
			}
		}
	}
}
