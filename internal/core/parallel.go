package core

import (
	"context"

	"aqverify/internal/hashing"
	"aqverify/internal/metrics"
	"aqverify/internal/pool"
)

// parallelChunks splits the index range [0, n) into contiguous chunks and
// runs fn on each chunk across at most workers goroutines. Every worker
// gets a hasher bound to its own metrics counter (a Hasher is not safe
// for concurrent use); after the join, the per-worker counts are merged
// into the owner's main counter, so hash/sign totals match the serial path
// exactly. The first non-nil chunk error (lowest chunk index) is
// returned.
//
// Each chunk writes only its own index range of any shared output slice,
// which keeps the fan-out deterministic: the bytes produced for index i
// never depend on the worker count (or the chunk count — the range is
// oversplit beyond the worker count so uneven chunks load-balance and a
// done context is noticed between chunks). Cancellation is cooperative:
// once ctx is done no new chunk starts, and ctx.Err() is returned after
// the in-flight chunks drain.
func (o *Owner) parallelChunks(ctx context.Context, workers, n int, fn func(h *hashing.Hasher, lo, hi int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	w := pool.Workers(workers, n)
	chunks := w * 8
	if chunks > n {
		chunks = n
	}
	if w <= 1 {
		for c := 0; c < chunks; c++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(o.hasher, c*n/chunks, (c+1)*n/chunks); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	hs := make([]*hashing.Hasher, w)
	ctrs := make([]metrics.Counter, w)
	for i := range hs {
		hs[i] = o.hasher.WithCounter(&ctrs[i])
	}
	errs := make([]error, chunks)
	runErr := pool.RunCtx(ctx, chunks, w, func(worker, c int) {
		errs[c] = fn(hs[worker], c*n/chunks, (c+1)*n/chunks)
	})
	main := o.hasher.Counter()
	for i := range ctrs {
		main.Add(ctrs[i])
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return runErr
}
