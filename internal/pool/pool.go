// Package pool provides the bounded worker-pool primitive shared by the
// batched code paths (the backend batch drivers, the sharded builders):
// workers claim item indexes off a shared atomic, so unevenly sized items
// load-balance instead of straggling in a fixed shard.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count for n items: non-positive
// means one per CPU, and the count never exceeds n. Callers use the
// result to size per-worker state (e.g. metrics counters) before RunCtx.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// RunCtx executes fn(worker, i) for every i in [0, n) across at most
// workers goroutines (pass the value returned by Workers). fn is called
// concurrently with distinct i; worker identifies the calling goroutine
// in [0, workers) so fn can index per-worker state without locking.
// Cancellation is cooperative: workers stop claiming new indexes once
// ctx is done, and RunCtx returns ctx.Err() (nil when every index was
// processed). Indexes already claimed when the context fires still run
// to completion — fn is never abandoned mid-item — so callers know each
// index was either fully processed or never started. The skipped set is
// the indexes for which fn was not called.
func RunCtx(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, i)
		}
		return ctx.Err()
	}
	done := ctx.Done()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}
