package backend

import (
	"context"
	"fmt"
	"iter"
	"slices"

	"aqverify/internal/core"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/shard"
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
	return DriveQuery(ctx, b.Process, q, opts...)
}

// QueryBatch implements Backend.
func (b *Local) QueryBatch(ctx context.Context, qs []query.Query, opts ...Option) ([]Answer, []error) {
	return DriveBatch(ctx, b.Process, qs, opts...)
}

// QueryStream implements Backend.
func (b *Local) QueryStream(ctx context.Context, qs []query.Query, opts ...Option) iter.Seq2[int, BatchResult] {
	return DriveStream(ctx, b.Process, qs, opts...)
}

// Epoch returns the served tree's publication epoch.
func (b *Local) Epoch() uint64 { return b.tree.Epoch() }

// Domain returns the serving domain (the tree's sub-box when it is one
// shard of a multi-process deployment).
func (b *Local) Domain() geometry.Box { return b.tree.Domain() }

// Process is the Local's evaluation primitive (see the Process type):
// walk the tree, serialize the answer, charge its bytes. The in-process
// server hosts a tree through it.
func (b *Local) Process(q query.Query, ctr *metrics.Counter) (int, uint64, []byte, error) {
	ans, err := b.tree.Process(q, ctr)
	if err != nil {
		return wire.ShardNone, b.tree.Epoch(), nil, err
	}
	return wire.ShardNone, b.tree.Epoch(), encoded(ans, ctr), nil
}

// encoded serializes a walked answer and charges its bytes — the one
// place an in-process IFMH answer becomes wire bytes.
func encoded(ans *core.Answer, ctr *metrics.Counter) []byte {
	out := wire.EncodeIFMH(ans)
	ctr.AddBytes(uint64(len(out)))
	return out
}

// Sharded serves a domain-sharded tree set behind a router: every query
// is answered by the one shard whose sub-box owns its function input,
// and the answering shard travels in Answer.Shard.
type Sharded struct {
	router *shard.Router
}

// NewSharded wraps a query router over a built shard set.
func NewSharded(r *shard.Router) (*Sharded, error) {
	if r == nil {
		return nil, fmt.Errorf("backend: sharded backend needs a router")
	}
	return &Sharded{router: r}, nil
}

// Router returns the underlying router.
func (b *Sharded) Router() *shard.Router { return b.router }

// Name implements Backend.
func (b *Sharded) Name() string { return ifmhName(b.router.Set().Mode()) }

// Query implements Backend.
func (b *Sharded) Query(ctx context.Context, q query.Query, opts ...Option) (Answer, error) {
	return DriveQuery(ctx, b.Process, q, opts...)
}

// QueryBatch implements Backend.
func (b *Sharded) QueryBatch(ctx context.Context, qs []query.Query, opts ...Option) ([]Answer, []error) {
	return DriveBatch(ctx, b.Process, qs, opts...)
}

// QueryStream implements Backend.
func (b *Sharded) QueryStream(ctx context.Context, qs []query.Query, opts ...Option) iter.Seq2[int, BatchResult] {
	return DriveStream(ctx, b.Process, qs, opts...)
}

// Epoch returns the served set's publication epoch — the maximum across
// shards, which all agree on when the set is untorn (build.Apply and
// shard.BuildCtx both land every shard on one epoch).
func (b *Sharded) Epoch() uint64 { return slices.Max(b.Epochs()) }

// Epochs returns every shard's publication epoch, in shard order.
func (b *Sharded) Epochs() []uint64 {
	trees := b.router.Set().Trees
	out := make([]uint64, len(trees))
	for i, t := range trees {
		out[i] = t.Epoch()
	}
	return out
}

// Process is the Sharded's evaluation primitive (see the Process type):
// route, answer on the owning tree, serialize. A refusal keeps the
// owning shard's attribution; an unroutable query has none.
func (b *Sharded) Process(q query.Query, ctr *metrics.Counter) (int, uint64, []byte, error) {
	sh, ans, err := b.router.Process(q, ctr)
	if sh < 0 {
		return wire.ShardNone, 0, nil, err
	}
	epoch := b.router.Set().Trees[sh].Epoch()
	if err != nil {
		return sh, epoch, nil, err
	}
	return sh, epoch, encoded(ans, ctr), nil
}

// ifmhName reports the backend name for a signing mode, matching the
// names the server and /params advertise.
func ifmhName(m core.Mode) string {
	if m == core.OneSignature {
		return "ifmh-one"
	}
	return "ifmh-multi"
}
