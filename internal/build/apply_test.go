package build

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/record"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
	"aqverify/internal/workload"
)

// treesOf flattens a result's trees (the single tree, or every shard).
func treesOf(t *testing.T, r *Result) []*core.Tree {
	t.Helper()
	if r.Tree != nil {
		return []*core.Tree{r.Tree}
	}
	if r.Set != nil {
		return r.Set.Trees
	}
	t.Fatal("result holds no IFMH product")
	return nil
}

// TestApplyEquivalence is the mutation plane's keystone: for every
// combination of signing mode, sharding, layout and worker count, Apply
// must be byte-identical — fingerprints and served
// answer bytes — to a full Outsource of the mutated table at the same
// epoch. The batches cover inserts, deletes, updates, a mixed batch,
// and records whose intersections land exactly on a shard cut (or the
// domain edge, where the pair is inert).
func TestApplyEquivalence(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 80, 5, workload.Gaussian)
	tbl := spec.Table
	dom := spec.Domain
	qs := sampleQueries(dom, 10)

	// onCut crafts two lines whose mutual breakpoint is exactly c: with
	// intercepts -2c and -4c the difference arithmetic is exact in
	// floats, so the pair lands bit-exactly on the cut.
	onCut := func(c float64) []Mutation {
		return []Mutation{
			Insert(record.Record{ID: 1000001, Attrs: []float64{2, -2 * c}}),
			Insert(record.Record{ID: 1000002, Attrs: []float64{4, -4 * c}}),
		}
	}
	batches := func(cut float64) map[string][]Mutation {
		return map[string][]Mutation{
			"insert": {Insert(record.Record{ID: 1000003, Attrs: []float64{1.5, -0.25}})},
			"delete": {Delete(7)},
			"update": {Update(3, record.Record{ID: tbl.Records[3].ID, Attrs: []float64{-0.8, 1.1}})},
			"mixed": {
				Insert(record.Record{ID: 1000004, Attrs: []float64{0.6, 0.4}}),
				Delete(0), Delete(tbl.Len() - 1),
				Update(11, record.Record{ID: tbl.Records[11].ID, Attrs: []float64{2.5, -1}}),
				Insert(record.Record{ID: 1000005, Attrs: []float64{-1.2, 0.9}}),
			},
			"on-cut": onCut(cut),
		}
	}

	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		for _, shards := range []int{0, 3} {
			for _, workers := range []int{1, 8} {
				// "mat=false" is inert: it keeps the subtest names this
				// battery has always had, so its history stays comparable.
				name := fmt.Sprintf("%v/shards=%d/workers=%d/mat=false", mode, shards, workers)
				opts := []Option{WithMode(mode), WithShuffle(5), WithWorkers(workers)}
				if shards > 0 {
					opts = append(opts, WithShards(shards, 0))
				}
				prev, err := Outsource(ctx, spec, opts...)
				if err != nil {
					t.Fatalf("%s: base build: %v", name, err)
				}
				// On a sharded product the crafted pair lands exactly on
				// the first interior cut; unsharded, exactly on the
				// domain edge, where it is inert but its lines are not.
				cut := dom.Lo[0]
				if shards > 0 {
					cut = prev.Plan.Cuts[0]
				}
				for bname, muts := range batches(cut) {
					t.Run(name+"/"+bname, func(t *testing.T) {
						next, err := Apply(ctx, prev, muts...)
						if err != nil {
							t.Fatalf("apply: %v", err)
						}
						mutated, err := mutate(tbl, muts)
						if err != nil {
							t.Fatal(err)
						}
						fullSpec := spec
						fullSpec.Table = mutated
						full, err := Outsource(ctx, fullSpec, append(opts[:len(opts):len(opts)], WithEpoch(2))...)
						if err != nil {
							t.Fatalf("full rebuild: %v", err)
						}
						at, ft := treesOf(t, next), treesOf(t, full)
						if len(at) != len(ft) {
							t.Fatalf("apply built %d trees, full build %d", len(at), len(ft))
						}
						for i := range at {
							if at[i].Epoch() != 2 {
								t.Fatalf("tree %d: epoch %d after one apply, want 2", i, at[i].Epoch())
							}
							if at[i].Fingerprint() != ft[i].Fingerprint() {
								t.Errorf("tree %d: fingerprint differs between Apply and full Outsource", i)
							}
							a, b := answersOf(t, at[i], qs), answersOf(t, ft[i], qs)
							for k := range a {
								if !bytes.Equal(a[k], b[k]) {
									t.Fatalf("tree %d: answer %d differs between Apply and full Outsource", i, k)
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestApplyChain applies three successive batches and checks the final
// product still matches a from-scratch build of the final table at the
// final epoch — drift cannot accumulate across epochs.
func TestApplyChain(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 50, 9, workload.Uniform)
	opts := []Option{WithMode(verify.OneSignature), WithShuffle(9)}
	r, err := Outsource(ctx, spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	steps := [][]Mutation{
		{Insert(record.Record{ID: 2000001, Attrs: []float64{3, -2}})},
		{Delete(4), Update(0, record.Record{ID: spec.Table.Records[0].ID, Attrs: []float64{-1, 1}})},
		{Insert(record.Record{ID: 2000002, Attrs: []float64{0.1, 0.2}}), Delete(10)},
	}
	tbl := spec.Table
	for _, muts := range steps {
		mutated, err := mutate(tbl, muts)
		if err != nil {
			t.Fatal(err)
		}
		tbl = mutated
		if r, err = Apply(ctx, r, muts...); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Tree.Epoch(); got != 4 {
		t.Fatalf("epoch %d after three applies, want 4", got)
	}
	fullSpec := spec
	fullSpec.Table = tbl
	full, err := Outsource(ctx, fullSpec, append(opts, WithEpoch(4))...)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tree.Fingerprint() != full.Tree.Fingerprint() {
		t.Fatal("chained applies drifted from the from-scratch build")
	}
}

// TestApplyValidation covers the loud-failure contract: bad batches,
// static products, and epoch discipline.
func TestApplyValidation(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 20, 2, workload.Uniform)
	r, err := Outsource(ctx, spec, WithShuffle(2))
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]Mutation{
		{},
		{Delete(20)},
		{Delete(-1)},
		{Delete(3), Delete(3)},
		{Delete(3), Update(3, spec.Table.Records[3])},
		{Update(2, record.Record{ID: spec.Table.Records[4].ID, Attrs: []float64{1, 1}})}, // duplicate ID
		{Insert(record.Record{ID: 3000001, Attrs: []float64{1}})},                        // wrong arity
		{Mutation{}},
	}
	for i, muts := range bad {
		if _, err := Apply(ctx, r, muts...); err == nil {
			t.Errorf("bad batch %d: Apply accepted it", i)
		}
	}
}

// TestApplyFallback checks Apply on a multivariate product — same API,
// same epoch bump, and still byte-identical to a direct Outsource of the
// mutated table.
func TestApplyFallback(t *testing.T) {
	ctx := context.Background()
	tbl, dom, err := workload.Points(workload.PointsConfig{N: 8, Dim: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{Rand: sig.DeterministicRand(7)})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Table: tbl, Template: funcs.ScalarProduct(2), Domain: dom, Signer: signer}
	r, err := Outsource(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	muts := []Mutation{Delete(1), Insert(record.Record{ID: 4000001, Attrs: []float64{0.4, 0.7}})}
	next, err := Apply(ctx, r, muts...)
	if err != nil {
		t.Fatal(err)
	}
	if next.Tree.Epoch() != 2 {
		t.Fatalf("fallback epoch %d, want 2", next.Tree.Epoch())
	}
	mutated, err := mutate(spec.Table, muts)
	if err != nil {
		t.Fatal(err)
	}
	fullSpec := spec
	fullSpec.Table = mutated
	full, err := Outsource(ctx, fullSpec, WithEpoch(2))
	if err != nil {
		t.Fatal(err)
	}
	if next.Tree.Fingerprint() != full.Tree.Fingerprint() {
		t.Fatal("fallback apply differs from a direct rebuild")
	}
}

// TestApplyKeepsThePlan: a sharded product's plan is fixed by the build
// that made it, so Apply rebuilds under that plan even when its planner
// would cut the mutated table elsewhere, and a one-shard set stays a
// set. TestApplyEquivalence cannot see this: re-planning never moves
// even cuts.
func TestApplyKeepsThePlan(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 40, 13, workload.Gaussian)
	opts := []Option{WithMode(verify.MultiSignature), WithShuffle(13)}
	prev, err := Outsource(ctx, spec, append(opts, WithShards(3, 0), WithPlanner(QuantileCuts))...)
	if err != nil {
		t.Fatal(err)
	}
	// Deleting a third of the table redistributes the breakpoints.
	var muts []Mutation
	for i := 0; i < 14; i++ {
		muts = append(muts, Delete(i))
	}
	mutated, err := mutate(spec.Table, muts)
	if err != nil {
		t.Fatal(err)
	}
	mutSpec := spec
	mutSpec.Table = mutated
	replanned, err := QuantileCuts(ctx, PlanRequest{Spec: mutSpec, K: 3, Axis: 0})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(replanned.Cuts, prev.Plan.Cuts) {
		t.Fatalf("the mutation leaves the quantile cuts at %v; the test needs one that moves them", prev.Plan.Cuts)
	}

	next, err := Apply(ctx, prev, muts...)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(next.Plan.Cuts, prev.Plan.Cuts) || !slices.Equal(next.Set.Plan.Cuts, prev.Plan.Cuts) {
		t.Fatalf("Apply re-planned: cuts %v (set %v), built under %v", next.Plan.Cuts, next.Set.Plan.Cuts, prev.Plan.Cuts)
	}
	full, err := Outsource(ctx, mutSpec, append(opts, WithPlan(prev.Plan), WithEpoch(2))...)
	if err != nil {
		t.Fatal(err)
	}
	at, ft := treesOf(t, next), treesOf(t, full)
	if len(at) != len(ft) {
		t.Fatalf("apply built %d trees, WithPlan build %d", len(at), len(ft))
	}
	for i := range at {
		if at[i].Fingerprint() != ft[i].Fingerprint() {
			t.Errorf("tree %d: Apply differs from Outsource under the original plan", i)
		}
	}

	one, err := Outsource(ctx, spec, append(opts, WithShards(1, 0))...)
	if err != nil {
		t.Fatal(err)
	}
	oneNext, err := Apply(ctx, one, Delete(0))
	if err != nil {
		t.Fatal(err)
	}
	if oneNext.Set == nil || oneNext.Tree != nil || oneNext.Set.NumShards() != 1 {
		t.Fatal("a one-shard set is no longer a set after Apply")
	}
}

// TestApplyProgress: Apply reports every stage of its build to the
// original WithProgress callback, attributed as the original build
// was — ShardNone for a single tree, each shard's index for a set.
func TestApplyProgress(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 30, 17, workload.Gaussian)
	for _, shards := range []int{0, 3} {
		var mu sync.Mutex
		stages := map[int][]core.Stage{}
		opts := []Option{WithShuffle(17), WithProgress(func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			stages[p.Shard] = append(stages[p.Shard], p.Stage)
		})}
		want := []int{ShardNone}
		if shards > 0 {
			opts = append(opts, WithShards(shards, 0))
			want = []int{0, 1, 2}
		}
		prev, err := Outsource(ctx, spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		built := stages
		stages = map[int][]core.Stage{}
		if _, err := Apply(ctx, prev, Delete(2), Insert(record.Record{ID: 6000001, Attrs: []float64{0.3, -0.2}})); err != nil {
			t.Fatal(err)
		}
		if len(stages) != len(want) {
			t.Fatalf("shards=%d: Apply reported for %d attributions, want %v", shards, len(stages), want)
		}
		for _, sh := range want {
			if len(stages[sh]) == 0 {
				t.Fatalf("shards=%d: Apply reported no stage for shard %d", shards, sh)
			}
			if !slices.Equal(stages[sh], built[sh]) {
				t.Errorf("shards=%d shard %d: Apply reported %v, Outsource %v", shards, sh, stages[sh], built[sh])
			}
		}
	}
}
