package backend

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/shard"
	"aqverify/internal/wire"
)

// Fanout is the multi-process shard front-end: it composes K backends —
// one per sub-box of a shard plan, typically transport.Remote handles on
// K vqserve processes — into one logical database. Every query routes to
// the backend whose sub-box owns its function input (shard.Plan's
// deterministic on-cut-goes-right rule), batches
// are split per shard and dispatched to all owning backends
// concurrently, and the merged results stay parallel to the input.
// Answer.Shard always reports the front-end's routing choice, whatever
// the child backend attributed.
//
// A Fanout holds no mutable state; it is safe for concurrent use
// whenever its children are.
type Fanout struct {
	plan shard.Plan
	kids []Backend
	name string
}

// NewFanout composes one backend per sub-box of the plan, in shard
// order. All children must advertise the same backend name — they serve
// shards of one logical database under one published parameter bundle.
func NewFanout(plan shard.Plan, kids []Backend) (*Fanout, error) {
	if plan.K() == 0 {
		return nil, fmt.Errorf("backend: fanout needs a shard plan; use shard.NewPlan")
	}
	if len(kids) != plan.K() {
		return nil, fmt.Errorf("backend: plan has %d shards but %d backends were given", plan.K(), len(kids))
	}
	for i, k := range kids {
		if k == nil {
			return nil, fmt.Errorf("backend: shard %d backend is nil", i)
		}
	}
	name := kids[0].Name()
	for i, k := range kids {
		if k.Name() != name {
			return nil, fmt.Errorf("backend: shard %d serves %q, shard 0 serves %q; one logical database required",
				i, k.Name(), name)
		}
	}
	return &Fanout{plan: plan, kids: kids, name: name}, nil
}

// Plan returns the shard plan the front-end routes by.
func (f *Fanout) Plan() shard.Plan { return f.plan }

// NumShards returns the shard (child backend) count.
func (f *Fanout) NumShards() int { return f.plan.K() }

// Name implements Backend.
func (f *Fanout) Name() string { return f.name }

// Epoch returns the logical database's publication epoch as seen
// through the children: the maximum epoch any child reports, 0 when no
// child reports one. During a per-shard rollout the maximum is the
// authoritative epoch — the owner publishes monotonically, so the
// highest epoch any shard serves is the newest bundle.
func (f *Fanout) Epoch() uint64 { return slices.Max(f.Epochs()) }

// Epochs returns every child's publication epoch in shard order (0 for
// children that report none). Children mid-rollout may legitimately
// disagree; the lag shows up in /stats when a handler fronts the
// fanout.
func (f *Fanout) Epochs() []uint64 {
	out := make([]uint64, len(f.kids))
	for i, k := range f.kids {
		out[i] = Epoch(k)
	}
	return out
}

// Query implements Backend.
func (f *Fanout) Query(ctx context.Context, q query.Query, opts ...Option) (Answer, error) {
	return One(ctx, f, q, opts...)
}

// QueryBatch implements Backend: every owning shard's child answers its
// sub-batch through its own QueryBatch (one HTTP exchange per Remote
// child), concurrently, the last on the calling goroutine; the answers
// scatter back to their indexes after the join. No item is handed over on
// its own, and a batch one shard owns — every single query — runs inline.
func (f *Fanout) QueryBatch(ctx context.Context, qs []query.Query, opts ...Option) ([]Answer, []error) {
	answers, errs := make([]Answer, len(qs)), make([]error, len(qs))
	groups, rerrs := f.plan.Group(qs)
	for i, err := range rerrs {
		answers[i], errs[i] = Answer{Shard: wire.ShardNone}, err // a routed query's is overwritten below
	}
	subAnswers, subErrs := make([][]Answer, len(f.kids)), make([][]error, len(f.kids))
	ctrs := make([]metrics.Counter, len(f.kids))
	batch := func(sh int) {
		subAnswers[sh], subErrs[sh] = f.kids[sh].QueryBatch(ctx, pick(qs, groups[sh]), ReplaceCounter(opts, &ctrs[sh])...)
	}
	var wg sync.WaitGroup
	last := -1
	for sh, g := range groups {
		if len(g) == 0 {
			continue
		}
		if last >= 0 {
			wg.Add(1)
			go func(sh int) { defer wg.Done(); batch(sh) }(last)
		}
		last = sh
	}
	if last >= 0 {
		batch(last)
	}
	wg.Wait()
	for sh, g := range groups {
		for j, i := range g {
			answers[i], errs[i] = subAnswers[sh][j], subErrs[sh][j]
			answers[i].Shard = sh // the front-end's routing choice, refused or not
		}
	}
	// The caller's counter is only ever touched from the calling
	// goroutine: children wrote private ones, charged after the join.
	Resolve(opts).Charge(ctrs...)
	return answers, errs
}

// pick returns the queries at the given batch indexes, in order — one
// shard's sub-batch.
func pick(qs []query.Query, idx []int) []query.Query {
	sub := make([]query.Query, len(idx))
	for j, i := range idx {
		sub[j] = qs[i]
	}
	return sub
}
