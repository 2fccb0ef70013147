package backend

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"aqverify/internal/wire"
)

// TestMergeBreakJoinsBlockedProducers: the consumer breaks while every
// producer is parked mid-emit. Merge must cancel their context before
// any emit reports the break, let every pending and late emit complete
// (reporting false), join them all, run after exactly once — with a
// yield that no longer reaches the consumer — and never call the
// consumer's yield again.
func TestMergeBreakJoinsBlockedProducers(t *testing.T) {
	const producers = 4
	var ready sync.WaitGroup // every producer is about to emit its first item
	ready.Add(producers)
	var returned, afters, yields atomic.Int32
	var canceled atomic.Int32
	ps := make([]func(context.Context, func(int, BatchResult) bool), producers)
	for p := range ps {
		ps[p] = func(ctx context.Context, emit func(int, BatchResult) bool) {
			defer returned.Add(1)
			ready.Done()
			if emit(p, BatchResult{}) { // only one of these reaches the consumer, and it breaks on it
				t.Error("emit reported a listening consumer after the break")
			}
			if ctx.Err() == nil {
				t.Error("emit reported the break before the context was canceled")
			}
			canceled.Add(1)
			if emit(producers+p, BatchResult{}) { // a late emit must not block either
				t.Error("late emit reported a listening consumer")
			}
		}
	}
	Merge(context.Background(), func(int, BatchResult) bool {
		ready.Wait() // all producers are blocked in emit (or about to be)
		yields.Add(1)
		return false
	}, func(yield func(int, BatchResult) bool) {
		afters.Add(1)
		if got := returned.Load(); got != producers {
			t.Errorf("after ran with %d/%d producers joined", got, producers)
		}
		if yield(0, BatchResult{}) {
			t.Error("after's yield still reports a listening consumer")
		}
	}, ps...)
	if yields.Load() != 1 {
		t.Errorf("consumer's yield called %d times, want exactly the one that broke", yields.Load())
	}
	if afters.Load() != 1 || returned.Load() != producers || canceled.Load() != producers {
		t.Errorf("after ran %d times, %d/%d producers returned, %d saw the cancel",
			afters.Load(), returned.Load(), producers, canceled.Load())
	}
}

// TestMergeAfterSurfacesTheUnreached: without a break, after's yield is
// the consumer's — the place never-reached indexes fail — and Collect
// turns the stream, Fail included, into index-stable slices.
func TestMergeAfterSurfacesTheUnreached(t *testing.T) {
	boom := errors.New("boom")
	ran := make([]bool, 3)
	answers, errs := Collect(len(ran), func(yield func(int, BatchResult) bool) {
		Merge(context.Background(), yield, func(yield func(int, BatchResult) bool) {
			Fail(ran, boom)(yield)
		}, func(_ context.Context, emit func(int, BatchResult) bool) {
			ran[1] = true
			if !emit(1, BatchResult{Answer: Answer{Shard: 7}}) {
				t.Error("emit reported a break that never happened")
			}
		})
	})
	for i := range ran {
		switch {
		case i == 1 && (errs[i] != nil || answers[i].Shard != 7):
			t.Errorf("index 1: shard %d err %v, want the produced answer", answers[i].Shard, errs[i])
		case i != 1 && (!errors.Is(errs[i], boom) || answers[i].Shard != wire.ShardNone):
			t.Errorf("index %d: shard %d err %v, want unattributed boom", i, answers[i].Shard, errs[i])
		}
	}
}
