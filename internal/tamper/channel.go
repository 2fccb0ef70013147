package tamper

import (
	"context"
	"iter"
	"math/rand"

	"aqverify/internal/backend"
	"aqverify/internal/query"
	"aqverify/internal/wire"
)

// Channel is the adversary as a backend.Backend decorator — a lying
// server or the network between it and the user (§2.2). Every answer
// the inner backend produces passes through Rewrite before the caller's
// options see it: the inner call runs with no options (so unverified),
// the adversary rewrites Answer.Raw, and only then do the caller's
// WithVerify/WithCounter apply, through the same backend.Finisher /
// FinishBatch every transport finishes answers with. The attack suites
// therefore reach whatever the plane can compose — local, sharded,
// served, remote, fanned-out, cached.
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
	return attack(wire.DecodeIFMH, atk.Apply, wire.EncodeIFMH, rng)
}

// MeshAttack is IFMHAttack for the signature-mesh baseline.
func MeshAttack(atk Mesh, rng *rand.Rand) func(query.Query, []byte) []byte {
	return attack(wire.DecodeMesh, atk.Apply, wire.EncodeMesh, rng)
}

func attack[A interface{ Clone() A }](decode func([]byte) (A, error), apply func(A, *rand.Rand) bool, encode func(A) []byte, rng *rand.Rand) func(query.Query, []byte) []byte {
	return func(_ query.Query, raw []byte) []byte {
		ans, err := decode(raw)
		if err != nil {
			return raw
		}
		bad := ans.Clone()
		if !apply(bad, rng) {
			return raw
		}
		return encode(bad)
	}
}

// Name implements backend.Backend.
func (c Channel) Name() string { return c.Inner.Name() }

// Query implements backend.Backend.
func (c Channel) Query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	ans, err := c.Inner.Query(ctx, q)
	if err != nil {
		return ans, err
	}
	fin := backend.NewFinisher(opts...)
	defer fin.Flush()
	return c.deliver(fin, q, ans)
}

// QueryBatch implements backend.Backend.
func (c Channel) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	answers, errs := c.Inner.QueryBatch(ctx, qs)
	for i := range answers {
		if errs[i] == nil {
			answers[i].Raw = c.Rewrite(qs[i], answers[i].Raw)
		}
	}
	backend.FinishBatch(ctx, qs, answers, errs, opts...)
	return answers, errs
}

// QueryStream implements backend.Backend.
func (c Channel) QueryStream(ctx context.Context, qs []query.Query, opts ...backend.Option) iter.Seq2[int, backend.BatchResult] {
	return func(yield func(int, backend.BatchResult) bool) {
		fin := backend.NewFinisher(opts...)
		defer fin.Flush()
		for i, r := range c.Inner.QueryStream(ctx, qs) {
			if r.Err == nil {
				r.Answer, r.Err = c.deliver(fin, qs[i], r.Answer)
			}
			if !yield(i, r) {
				return
			}
		}
	}
}

// deliver rewrites one honest answer and finishes it under the caller's
// options; a rejected answer keeps only its attribution.
func (c Channel) deliver(fin *backend.Finisher, q query.Query, ans backend.Answer) (backend.Answer, error) {
	ans.Raw = c.Rewrite(q, ans.Raw)
	if err := fin.Finish(q, &ans); err != nil {
		return backend.Answer{Shard: ans.Shard, Epoch: ans.Epoch}, err
	}
	return ans, nil
}
