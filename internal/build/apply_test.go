package build

import (
	"bytes"
	"context"
	"fmt"
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
