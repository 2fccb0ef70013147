package tamper

import (
	"context"
	"iter"
	"math/rand"

	"aqverify/internal/backend"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/wire"
)

// Channel is the adversary as a backend.Backend decorator — a lying
// server or the network between it and the user (§2.2). Every answer
// the inner backend produces passes through Rewrite before the caller's
// options see it: the inner call runs with no options (so unverified),
// the adversary rewrites Answer.Raw, and only then do the caller's
// WithVerify/WithCounter apply, through the same backend.Call.Finish
// every transport finishes answers with. The attack suites therefore
// reach whatever the plane can compose — local, sharded, served,
// remote, fanned-out, cached.
type Channel struct {
	Inner backend.Backend
	// Rewrite returns the bytes the user receives in place of raw, the
	// honest answer to q; returning raw itself is the identity channel.
	// It is called from the calling goroutine, one item at a time.
	Rewrite func(q query.Query, raw []byte) []byte
}

// IFMHAttack returns the Rewrite that applies one catalogue attack to
// every IFMH answer it fits; bytes that do not decode, and answers the
// attack is inapplicable to, pass through unchanged.
func IFMHAttack(atk IFMH, rng *rand.Rand) func(query.Query, []byte) []byte {
	return func(_ query.Query, raw []byte) []byte {
		ans, err := wire.DecodeIFMH(raw)
		if err != nil {
			return raw
		}
		bad := ans.Clone()
		if !atk.Apply(bad, rng) {
			return raw
		}
		return wire.EncodeIFMH(bad)
	}
}

// Name implements backend.Backend.
func (c Channel) Name() string { return c.Inner.Name() }

// Query implements backend.Backend.
func (c Channel) Query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	return backend.One(ctx, c, q, opts...)
}

// QueryBatch implements backend.Backend over the inner backend's
// buffered exchange.
func (c Channel) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	return backend.Collect(len(qs), c.stream(ctx, qs, opts, backend.Buffered))
}

// QueryStream implements backend.Backend over the inner backend's
// stream.
func (c Channel) QueryStream(ctx context.Context, qs []query.Query, opts ...backend.Option) iter.Seq2[int, backend.BatchResult] {
	return c.stream(ctx, qs, opts, backend.Backend.QueryStream)
}

// stream is both exchanges' body: every honest answer of the inner
// exchange is rewritten and finished under the caller's options, on the
// consuming goroutine; a rejected answer keeps only its attribution.
// Only bytes cross the channel: records the inner backend attached (a
// warm cache does, even unasked) vouch for the honest bytes, not the
// rewritten ones, and are dropped.
func (c Channel) stream(ctx context.Context, qs []query.Query, opts []backend.Option,
	exchange func(backend.Backend, context.Context, []query.Query, ...backend.Option) iter.Seq2[int, backend.BatchResult]) iter.Seq2[int, backend.BatchResult] {
	return func(yield func(int, backend.BatchResult) bool) {
		call := backend.Resolve(opts)
		var cost metrics.Counter
		defer func() { call.Charge(cost) }()
		for i, r := range exchange(c.Inner, ctx, qs) {
			if r.Err == nil {
				r.Answer.Raw, r.Answer.Records = c.Rewrite(qs[i], r.Answer.Raw), nil
				r.Err = call.Finish(qs[i], &r.Answer, &cost)
			}
			if !yield(i, r) {
				return
			}
		}
	}
}
