package pool

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	for _, tc := range []struct{ workers, n, wantMax int }{
		{1, 10, 1},
		{4, 10, 4},
		{4, 2, 2},
		{0, 0, 1},
		{-3, 5, 5},
	} {
		got := Workers(tc.workers, tc.n)
		if got < 1 || got > tc.wantMax {
			t.Errorf("Workers(%d, %d) = %d, want in [1,%d]", tc.workers, tc.n, got, tc.wantMax)
		}
	}
}

// TestRunCtxCoversEveryIndexOnce: an un-canceled context processes
// every index exactly once, under worker ids in [0, workers).
func TestRunCtxCoversEveryIndexOnce(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 3, 8} {
		var hits [100]atomic.Int32
		if err := RunCtx(ctx, len(hits), workers, func(w, i int) {
			hits[i].Add(1)
			if w < 0 || w >= workers {
				t.Errorf("worker id %d out of [0,%d)", w, workers)
			}
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d processed %d times", workers, i, got)
			}
		}
	}
	if err := RunCtx(ctx, 0, 4, func(w, i int) { t.Error("fn called for n=0") }); err != nil {
		t.Fatal(err)
	}
}

// TestRunCtxCanceled: a canceled context stops workers from claiming
// new indexes and surfaces ctx.Err(); claimed indexes still run exactly
// once.
func TestRunCtxCanceled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var calls atomic.Int64
		err := RunCtx(ctx, 1000, workers, func(_, _ int) { calls.Add(1) })
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if calls.Load() == 1000 {
			t.Fatalf("workers=%d: canceled pool still processed every index", workers)
		}
	}
}
