package backend

import (
	"context"
	"iter"
	"sync"

	"aqverify/internal/query"
	"aqverify/internal/wire"
)

// Merge runs the producers concurrently and hands what they emit to
// yield, one item at a time on the calling goroutine, in completion
// order — the one place a stream of (index, result) pairs is assembled
// from concurrent work. It owns what every such stream must get right:
//
//   - cancel on break: the producers share a context derived from ctx,
//     canceled the moment yield returns false (and when Merge returns);
//   - lock step: emit returns once the consumer has taken the item, true
//     while it is still listening. By the time it returns false the
//     context is already canceled, so a producer that checks either
//     starts no work the consumer will not see — which is what keeps a
//     WithCounter total equal to the cost of the items yielded along a
//     chain of single producers;
//   - never block a producer for good: the consumer keeps draining after
//     a break — what it drains then is dropped, and yield is never
//     called again;
//   - full join: Merge returns only after every producer has;
//   - after runs exactly once, after the join, on the calling
//     goroutine, break or no break: the place to Charge the producers'
//     private counters and to Fail the indexes no producer reached. The
//     yield it is handed is the consumer's, muted once the consumer has
//     broken.
//
// emit is safe to call from any goroutine a producer starts, provided
// those goroutines finish before the producer returns.
func Merge(ctx context.Context, yield func(int, BatchResult) bool, after func(yield func(int, BatchResult) bool),
	producers ...func(ctx context.Context, emit func(int, BatchResult) bool)) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type indexed struct {
		i int
		r BatchResult
	}
	out := make(chan indexed)
	// One item is in the consumer's hands at a time and its emitter is
	// the only goroutine waiting on listening, so one channel serves all.
	listening := make(chan bool)
	emit := func(i int, r BatchResult) bool {
		out <- indexed{i, r}
		return <-listening
	}
	var wg sync.WaitGroup
	for _, p := range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p(ctx, emit)
		}()
	}
	go func() { wg.Wait(); close(out) }()
	broke := false
	for item := range out {
		if !broke && !yield(item.i, item.r) {
			broke = true
			cancel()
		}
		listening <- !broke
	}
	after(func(i int, r BatchResult) bool {
		broke = broke || !yield(i, r)
		return !broke
	})
}

// Fail is the outcome of indexes that did not run — a transport that
// failed wholesale, a context canceled before the pool reached them, a
// stream that died before delivering them: every i with ran[i] false
// yields an unattributed answer (wire.ShardNone) and err. A Merge after
// hook calls it as Fail(ran, err)(yield); Collect turns it into slices.
func Fail(ran []bool, err error) iter.Seq2[int, BatchResult] {
	return func(yield func(int, BatchResult) bool) {
		for i, ok := range ran {
			if !ok && !yield(i, BatchResult{Answer: Answer{Shard: wire.ShardNone}, Err: err}) {
				return
			}
		}
	}
}

// Collect drains a stream over n queries into the index-stable slices
// QueryBatch returns — with Buffered, what lets a wrapping backend
// write its body once, over a stream, and serve both exchanges from it.
func Collect(n int, seq iter.Seq2[int, BatchResult]) ([]Answer, []error) {
	answers := make([]Answer, n)
	errs := make([]error, n)
	for i, r := range seq {
		answers[i], errs[i] = r.Answer, r.Err
	}
	return answers, errs
}

// One answers q as a batch of one through b's buffered exchange — every
// backend's Query, so a single answer travels, is attributed and is
// finished exactly as a batch item is, with its real shard and epoch.
func One(ctx context.Context, b Backend, q query.Query, opts ...Option) (Answer, error) {
	answers, errs := b.QueryBatch(ctx, []query.Query{q}, opts...)
	return answers[0], errs[0]
}

// Buffered is b's buffered exchange in stream shape: one QueryBatch
// call — made now, not at first iteration — replayed in index order.
// Its signature is that of the method expression Backend.QueryStream,
// so a body written over a stream takes either as its child exchange
// (hence ctx in second place). The buffered exchange must stay
// reachable through every wrapper: it is the one a ReplicaSet hedges
// and a Remote sends as a single POST /query/batch.
func Buffered(b Backend, ctx context.Context, qs []query.Query, opts ...Option) iter.Seq2[int, BatchResult] {
	answers, errs := b.QueryBatch(ctx, qs, opts...)
	return func(yield func(int, BatchResult) bool) {
		for i := range answers {
			if !yield(i, BatchResult{Answer: answers[i], Err: errs[i]}) {
				return
			}
		}
	}
}
