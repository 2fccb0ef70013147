package backend

import (
	"context"
	"fmt"
	"iter"
	"slices"

	"aqverify/internal/core"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/shard"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
)

// Local serves one in-process IFMH-tree — the smallest deployment of the
// query plane, and the identity baseline every other backend is compared
// against.
type Local struct {
	tree *core.Tree
}

// NewLocal wraps a built tree.
func NewLocal(t *core.Tree) (*Local, error) {
	if t == nil {
		return nil, fmt.Errorf("backend: local backend needs a built tree")
	}
	return &Local{tree: t}, nil
}

// Tree returns the underlying tree.
func (b *Local) Tree() *core.Tree { return b.tree }

// Name implements Backend.
func (b *Local) Name() string { return ifmhName(b.tree.Mode()) }

// Query implements Backend.
func (b *Local) Query(ctx context.Context, q query.Query, opts ...Option) (Answer, error) {
	return One(ctx, b, q, opts...)
}

// QueryBatch implements Backend.
func (b *Local) QueryBatch(ctx context.Context, qs []query.Query, opts ...Option) ([]Answer, []error) {
	return DriveBatch(ctx, b.process, qs, opts...)
}

// QueryStream implements Backend.
func (b *Local) QueryStream(ctx context.Context, qs []query.Query, opts ...Option) iter.Seq2[int, BatchResult] {
	return DriveStream(ctx, b.process, qs, opts...)
}

// Epoch returns the served tree's publication epoch.
func (b *Local) Epoch() uint64 { return b.tree.Epoch() }

// Domain returns the serving domain (the tree's sub-box when it is one
// shard of a multi-process deployment).
func (b *Local) Domain() geometry.Box { return b.tree.Domain() }

// process is the Local's evaluation primitive (see the Process type):
// walk the tree, serialize the answer, charge its bytes.
func (b *Local) process(q query.Query, ctr *metrics.Counter) (int, uint64, []byte, error) {
	out, err := encoded(b.tree, q, ctr)
	return wire.ShardNone, b.tree.Epoch(), out, err
}

// encoded walks q on t and serializes the answer, charging its bytes —
// the one place an in-process IFMH answer becomes wire bytes. The walk
// fills an answer whose arrays live on this frame, sized for windows of
// up to 64 records, so the exact-length frame is the one allocation.
func encoded(t *core.Tree, q query.Query, ctr *metrics.Counter) ([]byte, error) {
	var recs [64]record.Record
	var proof [64]hashing.Digest
	var path [32]verify.PathStep
	a := verify.Answer{Records: recs[:0], VO: verify.VO{FProof: verify.Proof{Hashes: proof[:0]}, Path: path[:0]}}
	if err := t.ProcessInto(&a, q, ctr); err != nil {
		return nil, err
	}
	out := wire.EncodeIFMH(&a)
	ctr.AddBytes(uint64(len(out)))
	return out, nil
}

// Sharded serves a domain-sharded tree set: every query is answered by
// the one shard whose sub-box owns its function input (shard.Plan's
// routing), and the answering shard travels in Answer.Shard. The answer
// window — records, boundaries, list length — is identical to what the
// single-tree build over the full domain would return; only the proof
// material (IMH path or subdomain inequality set) is shard-local.
type Sharded struct {
	set *shard.Set
}

// NewSharded wraps a built shard set.
func NewSharded(s *shard.Set) (*Sharded, error) {
	if s == nil || len(s.Trees) == 0 {
		return nil, fmt.Errorf("backend: sharded backend needs a built set")
	}
	return &Sharded{set: s}, nil
}

// Set returns the underlying shard set.
func (b *Sharded) Set() *shard.Set { return b.set }

// Name implements Backend.
func (b *Sharded) Name() string { return ifmhName(b.set.Mode()) }

// Query implements Backend.
func (b *Sharded) Query(ctx context.Context, q query.Query, opts ...Option) (Answer, error) {
	return One(ctx, b, q, opts...)
}

// QueryBatch implements Backend. The batch is grouped up front and
// dispatched in shard-contiguous order: unroutable queries fail without
// occupying a worker, and consecutive workers hit the same tree instead
// of interleaving all K. The answers are byte-identical to per-query
// Query calls — the trees answer from immutable state.
func (b *Sharded) QueryBatch(ctx context.Context, qs []query.Query, opts ...Option) ([]Answer, []error) {
	groups, rerrs := b.set.Plan.Group(qs)
	order := make([]int, 0, len(qs))
	for _, g := range groups {
		order = append(order, g...)
	}
	answers, errs := driveBatchOrdered(ctx, b.process, qs, order, opts...)
	for i, err := range rerrs {
		if err != nil {
			answers[i], errs[i] = Answer{Shard: wire.ShardNone}, err
		}
	}
	return answers, errs
}

// QueryStream implements Backend.
func (b *Sharded) QueryStream(ctx context.Context, qs []query.Query, opts ...Option) iter.Seq2[int, BatchResult] {
	return DriveStream(ctx, b.process, qs, opts...)
}

// Epoch returns the served set's publication epoch — the maximum across
// shards, which all agree on when the set is untorn (build.Apply and
// shard.BuildCtx both land every shard on one epoch).
func (b *Sharded) Epoch() uint64 { return slices.Max(b.Epochs()) }

// Epochs returns every shard's publication epoch, in shard order.
func (b *Sharded) Epochs() []uint64 {
	out := make([]uint64, len(b.set.Trees))
	for i, t := range b.set.Trees {
		out[i] = t.Epoch()
	}
	return out
}

// Domain returns the full domain the set partitions.
func (b *Sharded) Domain() geometry.Box { return b.set.Plan.Domain }

// process is the Sharded's evaluation primitive (see the Process type):
// route, answer on the owning tree, serialize. A refusal keeps the
// owning shard's attribution; an unroutable query has none.
func (b *Sharded) process(q query.Query, ctr *metrics.Counter) (int, uint64, []byte, error) {
	sh, err := b.set.Plan.RouteQuery(q)
	if err != nil {
		return wire.ShardNone, 0, nil, err
	}
	t := b.set.Trees[sh]
	out, err := encoded(t, q, ctr)
	return sh, t.Epoch(), out, err
}

// ifmhName reports the backend name for a signing mode, matching the
// names the server and /params advertise.
func ifmhName(m verify.Mode) string {
	if m == verify.OneSignature {
		return "ifmh-one"
	}
	return "ifmh-multi"
}
