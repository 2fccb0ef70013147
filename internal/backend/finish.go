package backend

import (
	"context"

	"aqverify/internal/metrics"
	"aqverify/internal/pool"
	"aqverify/internal/query"
)

// FinishBatch applies one call's options to a batch of answers produced
// elsewhere — e.g. by one HTTP batch exchange — exactly as DriveBatch
// applies them to answers it produced itself: byte accounting into the
// WithCounter counter and, under WithVerify, verification fanned out
// across the worker pool (a canceled context stops it promptly and the
// prevented indexes report ctx.Err()). answers and errs are parallel to
// qs and updated in place; indexes that already carry an error are left
// untouched.
func FinishBatch(ctx context.Context, qs []query.Query, answers []Answer, errs []error, opts ...Option) {
	o := buildOptions(opts)
	var raw metrics.Counter
	answered := make([]int, 0, len(qs))
	for i := range answers {
		if errs[i] == nil {
			raw.AddBytes(uint64(len(answers[i].Raw)))
			answered = append(answered, i)
		}
	}
	o.ctr.Add(raw)
	if o.verify == nil {
		return
	}
	// The Answer contract: a failed query carries neither Raw nor
	// Records, only its shard attribution.
	fail := func(i int, err error) {
		answers[i] = Answer{Shard: answers[i].Shard}
		errs[i] = err
	}
	skipped, err := o.each(ctx, len(qs), answered, func(i int, ctr *metrics.Counter) {
		if err := o.finish(qs[i], &answers[i], ctr); err != nil {
			fail(i, err)
		}
	})
	for _, i := range skipped {
		fail(i, err)
	}
}

// Finisher applies one call's options to answers that arrive one at a
// time — the pipelined wire transport's client, which decodes item
// frames off the response body in completion order and must verify each
// as it lands instead of waiting for the batch to close. Finish and
// Flush must be called from one goroutine (the stream consumer's); the
// caller's WithCounter counter is only touched by Flush, keeping the
// single-goroutine counter contract.
type Finisher struct {
	o     options
	total metrics.Counter
}

// NewFinisher captures the call options once for a stream of answers.
func NewFinisher(opts ...Option) *Finisher {
	return &Finisher{o: buildOptions(opts)}
}

// Verifies reports whether the captured options include WithVerify —
// whether Finish does real per-item work (decode + signature check)
// worth spreading across a pool, or only byte accounting.
func (f *Finisher) Verifies() bool { return f.o.verify != nil }

// Workers returns the bounded pool size the captured options request
// for n items, as the batch drivers would size it.
func (f *Finisher) Workers(n int) int { return pool.Workers(f.o.workers, n) }

// Finish accounts one produced answer's bytes and, under WithVerify,
// decodes and verifies it in place (filling ans.Records) exactly as
// DriveBatch finishes answers it produced itself. A verification
// failure is returned and the answer's Records stay nil; the caller
// decides what survives of the item.
func (f *Finisher) Finish(q query.Query, ans *Answer) error {
	f.total.AddBytes(uint64(len(ans.Raw)))
	return f.o.finish(q, ans, &f.total)
}

// Flush folds the accumulated costs into the call's WithCounter
// counter; call it once the stream is drained (or abandoned).
func (f *Finisher) Flush() {
	f.o.ctr.Add(f.total)
	f.total.Reset()
}
