// Package build defines the unified construction plane: one
// context-aware entry point — Outsource — over every product a data
// owner can hand to the cloud. It mirrors internal/backend on the owner
// side: every evaluator sits behind one Backend query interface, and
// every product — single tree or whole shard set — comes out of
//
//	build.Outsource(ctx, Spec, ...Option)
//
// where Spec carries what every product needs — the table, the utility
// template, the owner-specified domain and the signing key — and
// functional options select the product and its shape: WithShards /
// WithPlan ask for a domain-sharded set (a K-process deployment serves
// one saved set, each process opening its shard with
// artifact.OpenShard), WithPlanner for density-adaptive cuts
// (QuantileCuts balances skewed workloads), WithWorkers bounds every
// stage's worker pool, and WithProgress observes stage starts. The
// result is byte-identical for every worker count, and a done ctx
// aborts mid-stage and returns ctx.Err() — every stage runs under
// pool.RunCtx (see core.BuildCtx, shard.BuildCtx).
package build

import (
	"context"
	"fmt"

	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/record"
	"aqverify/internal/shard"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
)

// Spec carries the construction inputs shared by every product: the raw
// table, the utility-function template interpreting it, the
// owner-specified bounded domain, and the owner's signing key.
type Spec struct {
	Table    record.Table
	Template funcs.Template
	Domain   geometry.Box
	Signer   sig.Signer
}

// ShardNone marks a progress event that is not bound to a shard: every
// stage of a single-tree product.
const ShardNone = -1

// Progress is one stage-start event of a running construction.
type Progress struct {
	// Shard is the shard the stage belongs to, or ShardNone for
	// unsharded products. Events of a sharded build arrive from the K
	// concurrent shard goroutines, so a callback must be safe for
	// concurrent use.
	Shard int
	// Stage names the construction stage (see core.Stage).
	Stage core.Stage
	// Units is the number of items the stage is about to process.
	Units int
}

// Result is one product of the build plane. Exactly one of Tree and Set
// is non-nil — which one follows from the options: Tree for the default
// single-tree product, Set for WithShards / WithPlan. Both hold serving
// trees only: the owner's side of each tree — its build parameters,
// signer and record digests — is unexported, held by a Result that
// Outsource or Apply returned and absent from one artifact.Open
// reconstructed.
type Result struct {
	// Tree is the built IFMH-tree (the single-tree product, or one shard
	// of a saved set opened with artifact.OpenShard).
	Tree *core.Tree
	// Set is the built domain-sharded tree set.
	Set *shard.Set
	// Plan is the shard plan the product was built under; for the
	// single-tree product it is the trivial single-shard plan over the
	// spec's domain (Plan.K() == 1).
	Plan shard.Plan
	// Public is the parameter bundle the owner publishes for verifying
	// clients (shards share the single-tree bundle).
	Public verify.PublicParams
	// owners holds one owner per tree, index-aligned with Plan.Boxes;
	// nil for a Result reconstructed from an artifact.
	owners []*core.Owner
}

// Stats returns each built tree's footprint, index-aligned with
// Plan.Boxes, counting its sweep plan's transpositions
// (Stats.TotalSwaps). A Result reconstructed from an artifact has no
// owners and returns none; its trees' own Stats read zero swaps.
func (r *Result) Stats() []core.Stats {
	out := make([]core.Stats, len(r.owners))
	for i, o := range r.owners {
		out[i] = o.Stats()
	}
	return out
}

// Option tunes one Outsource call.
type Option func(*options)

type options struct {
	mode     verify.Mode
	seed     int64
	workers  int
	epoch    uint64
	progress func(Progress)

	plan      *shard.Plan
	shards    int
	axis      int
	shardsSet bool
	planner   Planner
}

// WithMode selects the IFMH signing scheme (default verify.OneSignature).
func WithMode(m verify.Mode) Option { return func(o *options) { o.mode = m } }

// WithShuffle seeds the canonical priorities that shape the IMH-tree
// (default 0; shard i of a set uses seed+i). Every build is in canonical
// order — expected-logarithmic depth, shape a pure function of the
// table — so the seed only picks which such tree: one-signature
// verification objects, which carry the IMH path, depend on it;
// multi-signature answers do not.
func WithShuffle(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithWorkers bounds every parallel construction stage's worker pool:
// record digesting, the sweep plan, FMH-list building, hash propagation
// and multi-signature signing (the 1-D pair enumeration is one serial
// O(n log n + k) pass). Zero (the default) means one per CPU, one is
// serial; the product is byte-identical for every count.
// In a sharded build each shard reuses the same bound internally, so the
// effective parallelism is K × workers.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithEpoch stamps the built product's publication epoch (default 1).
// Apply bumps epochs automatically; the explicit stamp lets an owner
// that rebuilds from its table, Params and key resume its epoch
// sequence, and lets a direct Outsource land on the epoch an Apply
// would — the equivalence tests build both sides at one epoch and
// demand identical bytes.
func WithEpoch(e uint64) Option { return func(o *options) { o.epoch = e } }

// WithProgress observes every construction stage as it starts — of this
// Outsource call and, since the product's owners retain the callback, of
// every Apply on its Result. fn must be cheap, must not block, and — for
// sharded products, whose K shard builds run concurrently — must be safe
// for concurrent use.
func WithProgress(fn func(Progress)) Option { return func(o *options) { o.progress = fn } }

// WithPlan asks for a domain-sharded product built under an explicit
// plan (the plan's domain must equal the spec's). Mutually exclusive
// with WithShards.
func WithPlan(plan shard.Plan) Option { return func(o *options) { o.plan = &plan } }

// WithShards asks for a domain-sharded product: the domain is cut into k
// contiguous sub-boxes along the given axis by the configured planner
// (EvenCuts unless WithPlanner says otherwise), and one independently
// signed tree is built per sub-box. k < 1 is an error — a dynamically
// computed zero never silently degrades to an unsharded build. Mutually
// exclusive with WithPlan.
func WithShards(k, axis int) Option {
	return func(o *options) { o.shards = k; o.axis = axis; o.shardsSet = true }
}

// WithPlanner selects the cut-placement strategy used by WithShards
// (default EvenCuts; QuantileCuts balances skewed workloads).
func WithPlanner(p Planner) Option { return func(o *options) { o.planner = p } }

// stageFn adapts the configured progress callback to one product's
// (stage, units) callback, attributing events to the given shard.
func (o *options) stageFn(sh int) func(core.Stage, int) {
	if o.progress == nil {
		return nil
	}
	fn := o.progress
	return func(stage core.Stage, units int) {
		fn(Progress{Shard: sh, Stage: stage, Units: units})
	}
}

// Outsource builds the product the options select — by default one
// IFMH-tree over the whole domain — and returns it together with the
// parameter bundle the owner publishes. See the package comment for the
// determinism and cancellation contract.
func Outsource(ctx context.Context, spec Spec, opts ...Option) (*Result, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if spec.Signer == nil {
		return nil, fmt.Errorf("build: Spec.Signer is required")
	}
	if o.plan != nil && o.shardsSet {
		return nil, fmt.Errorf("build: WithPlan and WithShards are mutually exclusive")
	}
	if o.shardsSet && o.shards < 1 {
		return nil, fmt.Errorf("build: need at least one shard, got %d", o.shards)
	}
	params := core.Params{
		Mode:     o.mode,
		Signer:   spec.Signer,
		Domain:   spec.Domain,
		Template: spec.Template,
		Seed:     o.seed,
		Workers:  o.workers,
		Epoch:    o.epoch,
	}

	if o.plan == nil && !o.shardsSet {
		params.Progress = o.stageFn(ShardNone)
		owner, err := core.BuildCtx(ctx, spec.Table, params)
		if err != nil {
			return nil, err
		}
		trivial, err := shard.NewPlanCuts(spec.Domain, 0, nil)
		if err != nil {
			return nil, err
		}
		return &Result{Tree: owner.Tree, Plan: trivial, Public: owner.Public(), owners: []*core.Owner{owner}}, nil
	}

	var plan shard.Plan
	if o.plan != nil {
		plan = *o.plan
	} else {
		planner := o.planner
		if planner == nil {
			planner = EvenCuts
		}
		p, err := planner(ctx, PlanRequest{Spec: spec, K: o.shards, Axis: o.axis})
		if err != nil {
			return nil, err
		}
		plan = p
	}

	set, owners, err := shard.BuildCtx(ctx, spec.Table, params, plan, o.perShard())
	if err != nil {
		return nil, err
	}
	return &Result{Set: set, Plan: plan, Public: set.Public(), owners: owners}, nil
}

// perShard adapts the progress callback to the set builder's per-shard
// hook.
func (o *options) perShard() shard.PerShardProgress {
	if o.progress == nil {
		return nil
	}
	return func(i int) func(core.Stage, int) { return o.stageFn(i) }
}
