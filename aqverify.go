// Package aqverify verifies the correctness — soundness and completeness
// — of analytic query results over outsourced databases, implementing
// Nosrati & Cai, "Verifying the Correctness of Analytic Query Results"
// (IEEE TKDE 2020 / ICDE 2023).
//
// A data owner uploads a table to an untrusted cloud together with an
// authenticated data structure (the IFMH-tree). Data users issue top-k,
// score-range and KNN queries under a utility-function template; every
// answer carries a verification object that the user checks against the
// owner's published public key. Any record forged, modified, dropped or
// injected by the server or the network makes verification fail.
//
// # Quick start
//
//	signer, _ := aqverify.NewSigner(aqverify.Ed25519, aqverify.SignerOptions{})
//	res, _ := aqverify.Outsource(ctx, aqverify.BuildSpec{
//	        Table:    table,
//	        Template: aqverify.AffineLine(0, 1),
//	        Domain:   domain,
//	        Signer:   signer,
//	})
//	b, _ := aqverify.NewLocalBackend(res.Tree)
//	ans, err := b.Query(ctx, aqverify.NewTopK(x, 10),
//	        aqverify.WithVerify(res.Public)) // verified: ans.Records is trustworthy
//
// # The build plane
//
// Every product a data owner can hand to the cloud — a single IFMH-tree
// or an evenly or quantile-cut domain-sharded tree set — comes out of
// one context-aware call, Outsource, shaped by functional options:
// WithShards/WithPlan select sharding, WithPlanner picks the cut
// placement (QuantileCuts balances skewed data), WithBuildWorkers bounds
// every stage's worker pool and WithProgress observes the stages. The
// built bytes are identical for every worker count, and a canceled ctx
// aborts construction mid-stage. No option selects a list layout: a
// univariate template's sorted lists are always one persistent sweep
// chain, a multivariate one's always one from-scratch list per
// subdomain.
//
// # The mutation plane
//
// An outsourced product is not frozen: Apply re-outsources a previous
// build under a batch of record-level mutations — Insert, Delete,
// Update — and returns a new BuildResult exactly one publication epoch
// above the input. It rebuilds the mutated table under the options
// the product was built with, so the result is byte-identical to a full
// Outsource of the mutated table at the same epoch. Every published bundle carries its epoch in
// PublicParams.Epoch; epoch-aware servers swap the new bundle in
// atomically, answers carry the epoch they were computed at, and a
// client pinned to an older epoch surfaces the mismatch as a typed
// *EpochError instead of a misleading verification failure.
//
// # The query plane
//
// Every evaluator — a local tree, a domain-sharded tree set, the
// in-process server, a vqserve process over HTTP, a multi-process
// fanout — implements one Backend interface: Query answers one query,
// QueryBatch a whole batch (slices parallel to the input), and
// QueryStream yields results as they complete. Calls are tuned by
// functional options: WithWorkers bounds the fan-out, WithCounter
// collects cost metrics, WithVerify checks every answer against the
// owner's published parameters before it is returned. Contexts cancel
// cooperatively: a done context stops new work promptly. The lower-level
// primitives (Tree.Process server-side, Verify client-side)
// remain for code that handles wire bytes itself.
//
// # The cache plane
//
// WrapCache decorates any Backend with a whole-answer LRU keyed by
// (canonical query, publication epoch) that holds wire bytes and, once
// some caller has verified them, the verified records — so N callers of
// one hot query cost one backend walk and one verification (concurrent
// identical queries collapse into a single flight). A miss is cheap on
// its own: the server reads the result window off the subdomain's
// FMH-tree in O(log n + k), so there is no per-subdomain state to cache
// beneath the answers. Invalidation is the epoch discipline
// itself: a server swap or client refresh moves the epoch and strands
// the previous epoch's entries. Hit, miss, collapse and eviction
// counters surface through CacheStats (served as the "cache" object on
// /stats); cmd/vqserve and cmd/vqfront enable the tier with -cache.
//
// # Scaling
//
// Construction shards its embarrassingly parallel steps — record
// digesting, per-subdomain FMH-list building, multi-signature signing —
// across Params.Workers goroutines (0 = one per CPU, 1 = serial); the
// built tree is byte-identical for every worker count. WithVerify
// on a QueryBatch checks the answers concurrently on the client side
// across the WithWorkers pool. Over HTTP,
// cmd/vqserve exposes POST /query/batch, which carries many queries in
// one length-prefixed frame and answers them concurrently on the
// server, and POST /query/stream, which pipelines the batch's answers
// back frame by frame in completion order — the first verified result
// is in hand before the last query finishes (see internal/transport and
// docs/WIRE.md).
//
// # Sharding
//
// One logical database can be split across several independently built
// and signed trees by cutting the domain into contiguous sub-boxes:
// Outsource with WithShards (or NewShardPlan + WithPlan) constructs one
// tree per sub-box in parallel, and every query routes
// deterministically to the shard that owns its function input (points
// exactly on a cut go right). The published parameters — and therefore
// client-side verification — are identical to the single-tree
// deployment; see ARCHITECTURE.md. NewShardedBackend serves a built
// ShardSet in process (routing and shard-contiguous batch dispatch are
// its own; there is no separate router). To
// spread the shards across processes, run one vqserve per shard and
// compose them with cmd/vqfront (a Fanout over K remote backends) — or
// build the same topology in Go with NewFanout.
//
// The facade re-exports the stable surface of the internal packages; the
// examples/ directory shows complete programs, and cmd/vqbench
// regenerates the paper's evaluation figures.
package aqverify

import (
	"context"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/cache"
	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/shard"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
	"aqverify/internal/workload"
)

// Data model.
type (
	// Record is one row of the outsourced table.
	Record = record.Record
	// Column describes one schema attribute.
	Column = record.Column
	// Schema names a table's attributes.
	Schema = record.Schema
	// Table is the outsourced database.
	Table = record.Table
	// Template interprets records as linear functions of query weights.
	Template = funcs.Template
	// Point is a function input (weight vector).
	Point = geometry.Point
	// Box is the owner-specified bounded query domain.
	Box = geometry.Box
)

// Queries.
type (
	// Query is one analytic query (top-k, range or KNN).
	Query = query.Query
	// QueryKind discriminates the query types.
	QueryKind = query.Kind
)

// Core verification structures.
type (
	// Tree is the IFMH-tree — the authenticated data structure of the
	// paper's contribution.
	Tree = core.Tree
	// Params is the low-level single-tree build configuration
	// (Outsource assembles it from a BuildSpec and options).
	Params = core.Params
	// PublicParams is what the owner publishes to its users.
	PublicParams = verify.PublicParams
	// Mode selects one-signature or multi-signature.
	Mode = verify.Mode
	// VO is a verification object.
	VO = verify.VO
	// Answer is a query result plus its verification object.
	Answer = verify.Answer
	// TreeStats describes a built tree's footprint.
	TreeStats = core.Stats
)

// Domain sharding.
type (
	// ShardPlan is a contiguous split of the domain into sub-boxes.
	ShardPlan = shard.Plan
	// ShardSet is a domain-sharded deployment: one signed tree per
	// sub-box.
	ShardSet = shard.Set
)

// The unified build plane (see internal/build): one context-aware entry
// point — Outsource — over every product an owner can construct.
type (
	// BuildSpec carries the construction inputs shared by every product:
	// table, template, domain and signing key.
	BuildSpec = build.Spec
	// BuildResult is one built product plus the published parameters.
	BuildResult = build.Result
	// BuildOption tunes one Outsource call.
	BuildOption = build.Option
	// BuildProgress is one stage-start event of a running construction.
	BuildProgress = build.Progress
	// ShardPlanner places the interior cuts of a WithShards request.
	ShardPlanner = build.Planner
	// PlanRequest carries a planner's inputs.
	PlanRequest = build.PlanRequest
)

// The mutation plane (see internal/build): record-level changes
// re-outsourced under epoch discipline.
type (
	// Mutation is one record-level change of an outsourced table;
	// construct with Insert, Delete and Update.
	Mutation = build.Mutation
	// EpochError is the typed staleness signal a client receives when a
	// server answers from a different publication epoch than the one the
	// client pinned at dial; re-read the published parameters and retry.
	EpochError = backend.EpochError
)

// ShardNone marks an unsharded build stage (BuildProgress.Shard) or an
// unattributed answer (BackendAnswer.Shard).
const ShardNone = build.ShardNone

// The unified query plane (see internal/backend): one context-aware
// interface over every evaluator — local tree, shard set, in-process
// server, HTTP remote, multi-process fanout.
type (
	// Backend is the unified query surface: Query, QueryBatch and
	// QueryStream with functional options.
	Backend = backend.Backend
	// BackendAnswer is one query's outcome on any backend: the
	// serialized answer bytes, the answering shard, and — once verified —
	// the result records.
	BackendAnswer = backend.Answer
	// BackendResult pairs a streamed item's answer with its error.
	BackendResult = backend.BatchResult
	// BackendOption tunes one Query/QueryBatch/QueryStream call.
	BackendOption = backend.Option
	// Fanout composes K single-shard backends into one logical database.
	Fanout = backend.Fanout
)

// Signatures and instrumentation.
type (
	// Signer creates the owner's signatures.
	Signer = sig.Signer
	// Verifier checks them.
	Verifier = sig.Verifier
	// SignerOptions configures key generation.
	SignerOptions = sig.Options
	// SigScheme names a signature algorithm.
	SigScheme = sig.Scheme
	// Counter accumulates operation counts for measurements.
	Counter = metrics.Counter
)

// Signing modes.
const (
	OneSignature   = verify.OneSignature
	MultiSignature = verify.MultiSignature
)

// Signature schemes.
const (
	RSA     = sig.RSA
	DSA     = sig.DSA
	ECDSA   = sig.ECDSA
	Ed25519 = sig.Ed25519
)

// Query kinds.
const (
	TopK    = query.TopK
	Range   = query.Range
	KNN     = query.KNN
	BottomK = query.BottomK
)

// ErrVerification wraps every verification failure.
var ErrVerification = verify.ErrVerification

// NewTable validates records against a schema.
func NewTable(schema Schema, records []Record) (Table, error) {
	return record.NewTable(schema, records)
}

// NewBox builds a bounded query domain.
func NewBox(lo, hi []float64) (Box, error) { return geometry.NewBox(lo, hi) }

// ScalarProduct is the template f_i(X) = r_i · X with one weight per
// attribute.
func ScalarProduct(arity int) Template { return funcs.ScalarProduct(arity) }

// AffineLine is the univariate template f_i(x) = slope*x + intercept,
// naming the two attribute indices.
func AffineLine(slopeAttr, interceptAttr int) Template {
	return funcs.AffineLine(slopeAttr, interceptAttr)
}

// NewSigner generates a signing key.
func NewSigner(scheme SigScheme, opt SignerOptions) (Signer, error) {
	return sig.NewSigner(scheme, opt)
}

// NewTopK builds a top-k query at function input x.
func NewTopK(x Point, k int) Query { return query.NewTopK(x, k) }

// NewRange builds a score-range query.
func NewRange(x Point, l, u float64) Query { return query.NewRange(x, l, u) }

// NewKNN builds a k-nearest-neighbors query around score y.
func NewKNN(x Point, k int, y float64) Query { return query.NewKNN(x, k, y) }

// NewBottomK builds a bottom-k query (lowest k scores) — the extension
// query type demonstrating that any contiguous-window query plugs into
// the IFMH machinery.
func NewBottomK(x Point, k int) Query { return query.NewBottomK(x, k) }

// Outsource builds the product the options select — by default one
// IFMH-tree over the whole domain — and returns it with the parameter
// bundle the owner publishes. Options: WithMode, WithShuffle,
// WithBuildWorkers, WithProgress shape the construction;
// WithShards/WithPlan (+ WithPlanner) select a domain-sharded product.
// The result is byte-identical for every worker count, and a done ctx
// cancels mid-stage.
func Outsource(ctx context.Context, spec BuildSpec, opts ...BuildOption) (*BuildResult, error) {
	return build.Outsource(ctx, spec, opts...)
}

// WithMode selects the IFMH signing scheme (default OneSignature).
func WithMode(m Mode) BuildOption { return build.WithMode(m) }

// WithShuffle seeds the canonical priorities that shape the IMH-tree
// (default 0). Every build is in canonical order — expected-logarithmic
// depth, shape a pure function of the table; the seed only picks which
// such tree, and only one-signature verification objects depend on it.
func WithShuffle(seed int64) BuildOption { return build.WithShuffle(seed) }

// WithBuildWorkers bounds every construction stage's worker pool (0 =
// one per CPU, 1 = serial); the product is byte-identical either way.
func WithBuildWorkers(n int) BuildOption { return build.WithWorkers(n) }

// WithProgress observes every construction stage as it starts — of the
// Outsource call and of every Apply on its result; fn must be cheap
// and, for sharded builds, safe for concurrent use.
func WithProgress(fn func(BuildProgress)) BuildOption { return build.WithProgress(fn) }

// WithPlan asks for a domain-sharded product under an explicit plan.
func WithPlan(plan ShardPlan) BuildOption { return build.WithPlan(plan) }

// WithShards asks for a domain-sharded product: k contiguous sub-boxes
// along the axis, cut by the configured planner (EvenCuts by default).
func WithShards(k, axis int) BuildOption { return build.WithShards(k, axis) }

// WithPlanner selects the cut placement used by WithShards.
func WithPlanner(p ShardPlanner) BuildOption { return build.WithPlanner(p) }

// EvenCuts is the default planner: k equally sized sub-boxes.
func EvenCuts(ctx context.Context, req PlanRequest) (ShardPlan, error) {
	return build.EvenCuts(ctx, req)
}

// QuantileCuts places the cuts at the k-quantiles of the pairwise
// breakpoint distribution, balancing skewed workloads across shards.
func QuantileCuts(ctx context.Context, req PlanRequest) (ShardPlan, error) {
	return build.QuantileCuts(ctx, req)
}

// Insert appends a record to the table. Inserted records land after
// every surviving record, in batch order.
func Insert(rec Record) Mutation { return build.Insert(rec) }

// Delete removes the record at index i of the previous epoch's table.
// Surviving records keep their relative order (the table compacts).
func Delete(i int) Mutation { return build.Delete(i) }

// Update replaces the record at index i of the previous epoch's table
// in place: the row keeps its (compacted) position.
func Update(i int, rec Record) Mutation { return build.Update(i, rec) }

// Apply re-outsources a previously built product under a batch of
// record mutations, returning a new BuildResult one publication epoch
// above the input; the previous result is left untouched, so a server
// keeps answering from its snapshot until the new epoch is swapped in.
// Every tree is rebuilt from the mutated table under the options that
// built the product, so the result is byte-identical to a full
// Outsource of the mutated table at the same epoch, at any worker
// count. Sharded products rebuild every shard concurrently onto one
// common epoch.
func Apply(ctx context.Context, prev *BuildResult, muts ...Mutation) (*BuildResult, error) {
	return build.Apply(ctx, prev, muts...)
}

// NewShardPlan splits the domain into k evenly sized sub-boxes along the
// given axis (k = 1 is the trivial plan).
func NewShardPlan(domain Box, axis, k int) (ShardPlan, error) {
	return shard.NewPlan(domain, axis, k)
}

// NewLocalBackend lifts a built tree into the unified query plane.
func NewLocalBackend(t *Tree) (Backend, error) { return backend.NewLocal(t) }

// NewShardedBackend lifts a built shard set into the unified query
// plane: queries route to their owning shard, batches dispatch
// shard-contiguously.
func NewShardedBackend(s *ShardSet) (Backend, error) { return backend.NewSharded(s) }

// NewFanout composes one backend per sub-box of the plan — typically K
// remote shard servers — into one logical database.
func NewFanout(plan ShardPlan, kids []Backend) (*Fanout, error) {
	return backend.NewFanout(plan, kids)
}

// The cache plane (see internal/cache): a Backend decorator serving
// repeated queries from memory under the epoch discipline.
type (
	// Cache decorates a backend with the answer cache; it implements
	// Backend.
	Cache = cache.Cache
	// CacheOption tunes one WrapCache call.
	CacheOption = cache.Option
	// CacheStats is the cache plane's counter snapshot: hits
	// (cumulative and per current epoch), misses, single-flight
	// collapses and evictions.
	CacheStats = cache.Stats
)

// WrapCache decorates b with the answer cache: a whole-answer LRU keyed
// by (canonical query, epoch) with single-flight collapse of concurrent
// identical queries. One wrapped backend must front exactly one logical
// database.
func WrapCache(b Backend, opts ...CacheOption) (*Cache, error) { return cache.Wrap(b, opts...) }

// WithAnswerCapacity bounds the whole-answer LRU to n entries.
func WithAnswerCapacity(n int) CacheOption { return cache.WithAnswerCapacity(n) }

// ZipfConfig configures the skewed query workload of the cache
// experiments.
type ZipfConfig = workload.ZipfConfig

// ZipfQueries generates a reproducible Zipf-skewed query stream over a
// fixed universe of distinct queries, returning the stream and the
// universe it draws from.
func ZipfQueries(dom Box, cfg ZipfConfig) ([]Query, []Query, error) {
	return workload.Zipf(dom, cfg)
}

// WithWorkers bounds a backend call's worker pool (<= 0 = one per CPU).
func WithWorkers(n int) BackendOption { return backend.WithWorkers(n) }

// WithCounter accumulates a backend call's caller-side costs into ctr.
func WithCounter(ctr *Counter) BackendOption { return backend.WithCounter(ctr) }

// WithVerify makes a backend verify every answer against the owner's
// published parameters before returning it.
func WithVerify(pub PublicParams) BackendOption { return backend.WithVerify(pub) }

// Verify checks a query answer against the owner's public parameters; a
// nil return means the result is sound and complete.
func Verify(pub PublicParams, q Query, recs []Record, vo *VO, ctr *Counter) error {
	return verify.Verify(pub, q, recs, vo, ctr)
}

// Exec runs a query directly over a local table — the trusted reference
// the verification guarantees are defined against.
func Exec(tbl Table, tpl Template, q Query) (query.Result, error) {
	return query.Exec(tbl, tpl, q)
}
