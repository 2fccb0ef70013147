package cache

import (
	"context"
	"fmt"
	"iter"

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

// QueryBatch implements Backend: the led misses walk the inner backend
// as one buffered sub-batch, so its shard grouping, worker pool and —
// behind a front — hedging apply.
func (c *Cache) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	return backend.Collect(len(qs), c.stream(ctx, qs, opts, backend.Buffered))
}

// QueryStream implements Backend: the led misses stream off the inner
// backend and are yielded as they land. Item order is not index order.
func (c *Cache) QueryStream(ctx context.Context, qs []query.Query, opts ...backend.Option) iter.Seq2[int, backend.BatchResult] {
	return c.stream(ctx, qs, opts, backend.Backend.QueryStream)
}

// stream is both exchanges' body. A batch that is all hits is served
// on the calling goroutine, with nothing to overlap; any other goes to
// overlap. Breaking out of the iteration cancels the inner exchange and
// completes this call's unfinished flights with the cancellation
// (waiters elsewhere retry them).
func (c *Cache) stream(ctx context.Context, qs []query.Query, opts []backend.Option,
	exchange func(backend.Backend, context.Context, []query.Query, ...backend.Option) iter.Seq2[int, backend.BatchResult]) iter.Seq2[int, backend.BatchResult] {
	return func(yield func(int, backend.BatchResult) bool) {
		if len(qs) == 0 {
			return
		}
		if err := ctx.Err(); err != nil {
			backend.Fail(make([]bool, len(qs)), err)(yield)
			return
		}
		call := backend.Resolve(opts)
		cl := c.classify(qs)
		if len(cl.led)+len(cl.wait) > 0 {
			c.overlap(ctx, call, qs, opts, cl, exchange, yield)
			return
		}
		var cost metrics.Counter
		c.serveHits(call, qs, cl.slots, &cost, yield)
		call.Charge(cost)
	}
}

// serveHits yields the batch's cached items, charging cost, until the
// consumer stops listening.
func (c *Cache) serveHits(call backend.Call, qs []query.Query, slots []slot, cost *metrics.Counter, emit func(int, backend.BatchResult) bool) {
	for i, s := range slots {
		if !s.hit {
			continue
		}
		var r backend.BatchResult
		r.Answer, r.Err = c.serve(call, qs[i], s.k, s.e, cost)
		if !emit(i, r) {
			return
		}
	}
}

// overlap serves a batch with misses. Cached items are yielded without
// waiting on any walk, and no walk waits on them: led misses go to the
// inner backend as one sub-batch through exchange — its QueryStream, or
// its QueryBatch through backend.Buffered — at once, and are yielded as
// they land; collapsed items are yielded as their foreign flights
// resolve. The call's cost folds into the caller's counter once, at the
// end.
func (c *Cache) overlap(ctx context.Context, call backend.Call, qs []query.Query, opts []backend.Option, cl classified,
	exchange func(backend.Backend, context.Context, []query.Query, ...backend.Option) iter.Seq2[int, backend.BatchResult],
	yield func(int, backend.BatchResult) bool) {
	// Producers write private counters, folded once they are done: the
	// hits', the inner exchange's, one per foreign flight.
	costs := make([]metrics.Counter, 2+len(cl.wait))
	producers := []func(context.Context, func(int, backend.BatchResult) bool){
		func(_ context.Context, emit func(int, backend.BatchResult) bool) {
			c.serveHits(call, qs, cl.slots, &costs[0], emit)
		},
	}
	if len(cl.led) > 0 {
		producers = append(producers, func(ctx context.Context, emit func(int, backend.BatchResult) bool) {
			subqs := make([]query.Query, len(cl.led))
			for j, lf := range cl.led {
				subqs[j] = qs[lf.idxs[0]]
			}
			landed := make([]bool, len(cl.led))
			for j, r := range exchange(c.inner, ctx, subqs, backend.ReplaceCounter(opts, &costs[1])...) {
				landed[j] = true
				if !c.settle(cl.led[j], r, &costs[1], emit) {
					break // which cancels the inner exchange
				}
			}
			// An inner exchange normally answers every index; if it
			// ended early (our cancel, or a dying transport), the
			// leftover flights must still complete or foreign waiters
			// hang.
			err := ctx.Err()
			if err == nil {
				err = fmt.Errorf("cache: inner stream ended without answering")
			}
			for j, r := range backend.Fail(landed, err) {
				c.settle(cl.led[j], r, &costs[1], emit)
			}
		})
	}
	for wi, w := range cl.wait {
		producers = append(producers, func(ctx context.Context, emit func(int, backend.BatchResult) bool) {
			r, retry := c.await(ctx, call, qs[w.i], cl.slots[w.i].k, w.fl, &costs[2+wi])
			if retry {
				r.Answer, r.Err = c.Query(ctx, qs[w.i], backend.ReplaceCounter(opts, &costs[2+wi])...)
			}
			emit(w.i, r)
		})
	}
	backend.Merge(ctx, yield, func(func(int, backend.BatchResult) bool) {
		call.Charge(costs...)
	}, producers...)
}

// settle publishes one led flight's result and fans it out to every
// batch index that shares the key, reporting whether the consumer is
// still listening. Duplicate indexes are charged their answer bytes —
// the caller receives that many copies — but not a second walk.
func (c *Cache) settle(lf *ledFlight, r backend.BatchResult, cost *metrics.Counter, emit func(int, backend.BatchResult) bool) bool {
	c.land(lf.k, lf.fl, r)
	for di, i := range lf.idxs {
		if !emit(i, r) {
			return false
		}
		if di > 0 && r.Err == nil {
			cost.AddBytes(uint64(len(r.Answer.Raw)))
		}
	}
	return true
}
