package backend

import (
	"context"

	"aqverify/internal/metrics"
	"aqverify/internal/pool"
	"aqverify/internal/query"
	"aqverify/internal/wire"
)

// Process is the per-query primitive the in-process backends share:
// answer q, charging its costs — traversal and the serialized answer's
// bytes — to ctr, and report the answering shard and publication epoch:
// wire.ShardNone when unsharded or the query never routed, the owning
// shard otherwise (kept on refusals, so attribution survives errors);
// epoch 0 when the query failed before reaching a bundle. The drivers
// do not account bytes themselves; a Process that already charges them,
// like the in-process server's encoders, must not be charged twice.
// DriveBatch lifts a Process into the batch exchange, and One makes
// Query a batch of one, so implementing a new backend — in this package
// or outside it — means supplying only the evaluation itself.
type Process func(q query.Query, ctr *metrics.Counter) (shard int, epoch uint64, raw []byte, err error)

// DriveBatch answers a batch through p across a bounded worker pool,
// honoring cancellation: indexes the done context prevented report
// ctx.Err(). Per-worker counters merge into the caller's counter after
// the join, so WithCounter stays single-goroutine.
func DriveBatch(ctx context.Context, p Process, qs []query.Query, opts ...Option) ([]Answer, []error) {
	return driveBatchOrdered(ctx, p, qs, nil, opts...)
}

// driveBatchOrdered is DriveBatch with an explicit dispatch order: the
// pool claims order's entries left to right, so Sharded keeps one
// shard's queries contiguous (one tree's working set stays hot instead
// of interleaving all shards). A nil order means every index in input
// order. Indexes absent from order are left untouched — zero Answer,
// nil error — for the caller to fill (with routing errors).
func driveBatchOrdered(ctx context.Context, p Process, qs []query.Query, order []int, opts ...Option) ([]Answer, []error) {
	c := Resolve(opts)
	answers := make([]Answer, len(qs))
	errs := make([]error, len(qs))
	skipped, err := c.each(ctx, len(qs), order, func(i int, ctr *metrics.Counter) {
		answers[i], errs[i] = driveOne(c, p, qs[i], ctr)
	})
	for _, i := range skipped {
		answers[i] = Answer{Shard: wire.ShardNone}
		errs[i] = err
	}
	return answers, errs
}

// each runs fn(i, ctr) across the call's bounded worker pool for every
// index in order (a nil order means 0..n-1), handing each worker a
// private counter and folding them into the call's WithCounter counter
// after the join — on the calling goroutine, as its contract requires.
// Once ctx is done the pool stops claiming: the indexes it never
// reached come back as skipped, with ctx's error.
func (c Call) each(ctx context.Context, n int, order []int, fn func(i int, ctr *metrics.Counter)) (skipped []int, err error) {
	if order != nil {
		n = len(order)
	}
	if n == 0 {
		return nil, nil
	}
	at := func(k int) int {
		if order != nil {
			return order[k]
		}
		return k
	}
	started := make([]bool, n)
	workers := pool.Workers(c.workers, n)
	ctrs := make([]metrics.Counter, workers)
	err = pool.RunCtx(ctx, n, workers, func(w, k int) {
		started[k] = true
		fn(at(k), &ctrs[w])
	})
	if err != nil {
		for k, ok := range started {
			if !ok {
				skipped = append(skipped, at(k))
			}
		}
	}
	c.Charge(ctrs...)
	return skipped, err
}

// driveOne evaluates and (optionally) verifies one query. Failures
// keep the Process's shard attribution — the shard that refused, or
// ShardNone when the query never routed.
func driveOne(c Call, p Process, q query.Query, ctr *metrics.Counter) (Answer, error) {
	sh, epoch, raw, err := p(q, ctr)
	if err != nil {
		return Answer{Shard: sh, Epoch: epoch}, err
	}
	ans := Answer{Raw: raw, Shard: sh, Epoch: epoch}
	err = c.check(q, &ans, ctr)
	return ans, err
}

// One answers q as a batch of one through b's QueryBatch — every
// backend's Query, so a single answer travels, is attributed and is
// finished exactly as a batch item is, with its real shard and epoch.
func One(ctx context.Context, b Backend, q query.Query, opts ...Option) (Answer, error) {
	answers, errs := b.QueryBatch(ctx, []query.Query{q}, opts...)
	return answers[0], errs[0]
}
