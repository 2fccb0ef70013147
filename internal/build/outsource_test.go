package build

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
)

// testSpec builds a deterministic line-workload spec (Ed25519 with a
// fixed key, so signatures are reproducible across builds).
func testSpec(t *testing.T, n int, seed int64, dist workload.Distribution) Spec {
	t.Helper()
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: n, Seed: seed, Dist: dist})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{Rand: sig.DeterministicRand(7)})
	if err != nil {
		t.Fatal(err)
	}
	return Spec{Table: tbl, Template: funcs.AffineLine(0, 1), Domain: dom, Signer: signer}
}

// sampleQueries spreads top-k queries across the domain.
func sampleQueries(dom geometry.Box, count int) []query.Query {
	qs := make([]query.Query, 0, count)
	for i := 0; i < count; i++ {
		x := dom.Lo[0] + (dom.Hi[0]-dom.Lo[0])*float64(i+1)/float64(count+1)
		qs = append(qs, query.NewTopK(geometry.Point{x}, 1+i%5))
	}
	return qs
}

// answersOf processes the queries on a tree and returns the serialized
// answers (for a sharded product, on the tree owning each query).
func answersOf(t *testing.T, tr *core.Tree, qs []query.Query) [][]byte {
	t.Helper()
	out := make([][]byte, 0, len(qs))
	for _, q := range qs {
		if !tr.Domain().Contains(q.X) {
			out = append(out, nil)
			continue
		}
		ans, err := tr.Process(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, wire.EncodeIFMH(ans))
	}
	return out
}

// TestOutsourceProducts drives every product shape through the one entry
// point and checks the result invariants.
func TestOutsourceProducts(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 60, 3, workload.Gaussian)

	single, err := Outsource(ctx, spec, WithMode(verify.MultiSignature), WithShuffle(3))
	if err != nil {
		t.Fatal(err)
	}
	if single.Tree == nil || single.Set != nil {
		t.Fatal("single-tree product: wrong result shape")
	}
	if single.Plan.K() != 1 {
		t.Fatalf("single-tree product: plan K=%d", single.Plan.K())
	}
	if single.Public.Verifier == nil || single.Public.Mode != verify.MultiSignature {
		t.Fatalf("single-tree product: published parameters incomplete: %+v", single.Public)
	}
	if single.Tree.SignatureCount() != single.Tree.NumSubdomains() {
		t.Fatal("multi-signature product: one signature per subdomain expected")
	}

	for _, planner := range []Planner{nil, QuantileCuts} {
		opts := []Option{WithMode(verify.MultiSignature), WithShuffle(3), WithShards(3, 0)}
		if planner != nil {
			opts = append(opts, WithPlanner(planner))
		}
		set, err := Outsource(ctx, spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if set.Set == nil || set.Tree != nil || set.Set.NumShards() != 3 {
			t.Fatal("sharded product: wrong result shape")
		}
		if set.Plan.K() != 3 {
			t.Fatalf("sharded product: plan K=%d, want 3", set.Plan.K())
		}
	}
}

// TestOutsourceWorkersIdentity is the full-stack byte-identity check:
// one Outsource call at Workers=1 versus Workers=8 — covering the
// parallel pair enumeration, sweep, FMH builds, hash propagation and
// signing at once — must produce trees whose serialized answers (records
// + verification objects, signatures included) match byte for byte.
func TestOutsourceWorkersIdentity(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 80, 9, workload.AntiCorrelated)
	qs := sampleQueries(spec.Domain, 16)
	opts := []Option{WithMode(verify.MultiSignature), WithShuffle(9)}
	serial, err := Outsource(ctx, spec, append(opts, WithWorkers(1))...)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Outsource(ctx, spec, append(opts, WithWorkers(8))...)
	if err != nil {
		t.Fatal(err)
	}
	a, b := answersOf(t, serial.Tree, qs), answersOf(t, parallel.Tree, qs)
	for k := range a {
		if !bytes.Equal(a[k], b[k]) {
			t.Fatalf("answer %d differs between Workers=1 and Workers=8", k)
		}
	}
}

// TestOutsourceOptionConflicts pins the option-validation errors.
func TestOutsourceOptionConflicts(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 10, 1, workload.Gaussian)
	plan, err := EvenCuts(context.Background(), PlanRequest{Spec: spec, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []Option
	}{
		{"plan+shards", []Option{WithPlan(plan), WithShards(2, 0)}},
		{"zero shards", []Option{WithShards(0, 0)}},
	}
	for _, c := range cases {
		if _, err := Outsource(ctx, spec, c.opts...); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	if _, err := Outsource(ctx, Spec{Table: spec.Table, Template: spec.Template, Domain: spec.Domain}); err == nil {
		t.Error("missing signer: no error")
	}
	// Construction errors propagate through the plane.
	bad := spec
	bad.Template = funcs.ScalarProduct(5)
	if _, err := Outsource(ctx, bad); err == nil {
		t.Error("template wider than the schema: no error")
	}
}

// TestOutsourceCanceled mirrors internal/core/cancel_test.go on the
// build plane: a pre-canceled context aborts every product promptly
// with context.Canceled, and a mid-build cancellation surfaces the same
// error instead of a partial product.
func TestOutsourceCanceled(t *testing.T) {
	spec := testSpec(t, 150, 5, workload.Gaussian)
	products := [][]Option{
		{WithMode(verify.MultiSignature), WithShuffle(5), WithWorkers(4)},
		{WithMode(verify.MultiSignature), WithShuffle(5), WithWorkers(4), WithShards(3, 0)},
	}
	for i, opts := range products {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		res, err := Outsource(ctx, spec, opts...)
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("product %d: canceled build took %v", i, d)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("product %d: err = %v, want context.Canceled", i, err)
		}
		if res != nil {
			t.Fatalf("product %d: partial result returned alongside cancellation", i)
		}
	}

	// Mid-build: cancel while stages are running.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	if _, err := Outsource(ctx, testSpec(t, 400, 5, workload.Gaussian),
		WithMode(verify.MultiSignature), WithShuffle(5), WithWorkers(2)); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-build cancel: err = %v, want context.Canceled or completion", err)
	}
}

// TestOutsourceProgress checks stage events arrive with shard
// attribution: an unsharded build reports ShardNone, a K-shard build
// reports every shard index.
func TestOutsourceProgress(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 40, 11, workload.Gaussian)

	var single []Progress
	if _, err := Outsource(ctx, spec, WithShuffle(11),
		WithProgress(func(p Progress) { single = append(single, p) })); err != nil {
		t.Fatal(err)
	}
	if len(single) == 0 {
		t.Fatal("no progress events")
	}
	for _, p := range single {
		if p.Shard != ShardNone {
			t.Fatalf("unsharded build attributed stage %s to shard %d", p.Stage, p.Shard)
		}
	}

	// Sharded build: the shared enumeration reports once with ShardNone
	// (it precedes any shard), then every shard's stages follow.
	sawPairs := false
	seen := make(map[int]bool)
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	if _, err := Outsource(ctx, spec, WithShuffle(11), WithShards(3, 0),
		WithProgress(func(p Progress) {
			<-mu
			seen[p.Shard] = true
			if p.Stage == core.StagePairs {
				sawPairs = p.Shard == ShardNone
			}
			mu <- struct{}{}
		})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !seen[i] {
			t.Fatalf("no progress events for shard %d", i)
		}
	}
	if !sawPairs {
		t.Fatal("sharded build never reported the shared pair enumeration (StagePairs, ShardNone)")
	}
}

// TestPinnedFingerprints holds four fixed builds to pinned fingerprints:
// first recorded from the insert-path construction (at the commit before
// univariate trees were read straight off the arrangement) — treap
// uniqueness checked end to end, through every hash and signature, and
// the proof that no WithShuffle caller saw a byte move — and re-pinned
// once, unchanged builds, when the fingerprint stopped hashing the sweep
// plan (format 4).
func TestPinnedFingerprints(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 60, 3, workload.Gaussian)
	for _, c := range []struct {
		mode   verify.Mode
		shards int
		want   []string
	}{
		{verify.OneSignature, 0, []string{
			"a7e3a5dd91006282a2aed08a05a8559e6ab5b67fcec055cfb034e7cada196331"}},
		{verify.OneSignature, 3, []string{
			"245e52b5c6d0c3d3b3e3eb7043df133684d7a01b9a56bb0fd7681f648559204c",
			"d70eea212333bd45ed910264be06735064c97cf03bb6494f0502162cdbb01a3d",
			"1fbbd344484143e1dcef3275d383168f7328faec656d3da5b42999053d26a8c1"}},
		{verify.MultiSignature, 0, []string{
			"1499b535811f73a67f2fed425ff93df994821f76af44ff1b8508bbd0ffb6a513"}},
		{verify.MultiSignature, 3, []string{
			"b73a8ae3252fdcc111244c68b095a50dfebe8d0c498d7e20b4fa2367a3a76cff",
			"631e88d6f00480600187303028cee10f401a67a4ce26a8a6cfedd792609f6ae9",
			"03ba0b69bb5f1bdec648ea68a9b4325a39cebdbd9e68bd422f1339ee266e791b"}},
	} {
		opts := []Option{WithMode(c.mode), WithShuffle(5)}
		if c.shards > 0 {
			opts = append(opts, WithShards(c.shards, 0))
		}
		r, err := Outsource(ctx, spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range treesOf(t, r) {
			if got := fmt.Sprintf("%x", tr.Fingerprint()); got != c.want[i] {
				t.Errorf("%v shards=%d tree %d: fingerprint %s, pinned %s", c.mode, c.shards, i, got, c.want[i])
			}
		}
	}
}
