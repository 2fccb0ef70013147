package tamper

import (
	"context"
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
// QueryBatch, run with no options: every honest answer is rewritten and
// finished under the caller's options on the calling goroutine, and a
// rejected answer keeps only its attribution. Only bytes cross the
// channel: records the inner backend attached (a warm cache does, even
// unasked) vouch for the honest bytes, not the rewritten ones, and are
// dropped.
func (c Channel) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	answers, errs := c.Inner.QueryBatch(ctx, qs)
	call := backend.Resolve(opts)
	var cost metrics.Counter
	for i := range answers {
		if errs[i] == nil {
			answers[i].Raw, answers[i].Records = c.Rewrite(qs[i], answers[i].Raw), nil
			errs[i] = call.Finish(qs[i], &answers[i], &cost)
		}
	}
	call.Charge(cost)
	return answers, errs
}
