package build

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"aqverify/internal/funcs"
	"aqverify/internal/metrics"
	"aqverify/internal/shard"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
	"aqverify/internal/workload"
)

// spread returns the min and max per-shard subdomain count of a set —
// the S that drives each shard's build time, structure size and
// signature count.
func spread(set *shard.Set) (min, max int) {
	min = -1
	for _, tr := range set.Trees {
		s := tr.NumSubdomains()
		if min < 0 || s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	return min, max
}

// TestQuantileCutsBalanceSkew is the planner's reason to exist: on a
// clustered (skewed) workload, quantile cuts keep every shard's
// subdomain count within 2× of every other's, while even cuts leave the
// cluster-owning shard more than 2× over the emptiest one.
func TestQuantileCutsBalanceSkew(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 300, 5, workload.Clustered)
	opts := []Option{WithMode(verify.MultiSignature), WithShuffle(5), WithShards(4, 0)}

	even, err := Outsource(ctx, spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	quant, err := Outsource(ctx, spec, append(opts, WithPlanner(QuantileCuts))...)
	if err != nil {
		t.Fatal(err)
	}
	emin, emax := spread(even.Set)
	qmin, qmax := spread(quant.Set)
	if float64(qmax) > 2*float64(qmin) {
		t.Errorf("quantile cuts unbalanced: per-shard subdomains %d..%d", qmin, qmax)
	}
	if float64(emax) <= 2*float64(emin) {
		t.Errorf("even cuts unexpectedly balanced (%d..%d): the skew fixture lost its skew", emin, emax)
	}
}

// TestQuantileCutsIdentity: rebalancing must be invisible to data users —
// every routed query on the quantile-cut set returns the verdict and the
// result window of the single-tree build, verified against the same
// published parameters.
func TestQuantileCutsIdentity(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 300, 5, workload.Clustered)
	opts := []Option{WithMode(verify.MultiSignature), WithShuffle(5)}

	single, err := Outsource(ctx, spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	quant, err := Outsource(ctx, spec, append(opts, WithShards(4, 0), WithPlanner(QuantileCuts))...)
	if err != nil {
		t.Fatal(err)
	}
	pub := single.Public
	for _, q := range sampleQueries(spec.Domain, 24) {
		a1, err := single.Tree.Process(q, nil)
		if err != nil {
			t.Fatalf("%v: single tree: %v", q.X, err)
		}
		var ctr metrics.Counter
		id, err := quant.Set.Plan.RouteQuery(q)
		if err != nil {
			t.Fatalf("%v: quantile plan: %v", q.X, err)
		}
		a2, err := quant.Set.Trees[id].Process(q, &ctr)
		if err != nil {
			t.Fatalf("%v: quantile set: %v", q.X, err)
		}
		if err := verify.Verify(pub, q, a2.Records, &a2.VO, nil); err != nil {
			t.Fatalf("%v: shard answer rejected under the single-tree bundle: %v", q.X, err)
		}
		if len(a1.Records) != len(a2.Records) {
			t.Fatalf("%v: window sizes differ: %d vs %d", q.X, len(a1.Records), len(a2.Records))
		}
		for i := range a1.Records {
			if a1.Records[i].ID != a2.Records[i].ID {
				t.Fatalf("%v: record %d differs: id %d vs %d", q.X, i, a1.Records[i].ID, a2.Records[i].ID)
			}
		}
	}
}

// TestQuantileCutsDeterministic pins the Planner contract the
// multi-process deployment relies on: the same spec derives the same
// cuts, call after call.
func TestQuantileCutsDeterministic(t *testing.T) {
	spec := testSpec(t, 200, 8, workload.Clustered)
	a, err := QuantileCuts(context.Background(), PlanRequest{Spec: spec, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := QuantileCuts(context.Background(), PlanRequest{Spec: spec, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cuts) != len(b.Cuts) {
		t.Fatalf("cut counts differ: %d vs %d", len(a.Cuts), len(b.Cuts))
	}
	for i := range a.Cuts {
		if a.Cuts[i] != b.Cuts[i] {
			t.Fatalf("cut %d differs: %v vs %v", i, a.Cuts[i], b.Cuts[i])
		}
	}
}

// TestQuantileCutsAreExactQuantiles: above 2 048 lines, where the
// planner once sampled pairs, a standalone call places the cuts at the
// k-quantiles of the brute-force breakpoint list (every pair's
// hyperplane root strictly inside the domain), and Outsource derives the
// same cuts.
func TestQuantileCutsAreExactQuantiles(t *testing.T) {
	const n, k = 3000, 4
	spec := testSpec(t, n, 1, workload.Clustered)
	fs, err := spec.Template.InterpretTable(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := spec.Domain.Lo[0], spec.Domain.Hi[0]
	// rank is the owner's order at x: exact score, ties by index.
	rank := func(i, j int, x float64) bool {
		c := funcs.CmpAt(fs[i], fs[j], x)
		return c < 0 || c == 0 && i < j
	}
	var bps []float64
	for i := range fs {
		for j := i + 1; j < len(fs); j++ {
			atHi := rank(i, j, hi)
			if rank(i, j, lo) == atHi {
				continue
			}
			// The threshold: the first float at which the pair is in
			// its order at hi, walked to one float at a time from the
			// rounded root of f_i − f_j. A cut is strictly inside.
			h := funcs.Diff(fs[i], fs[j])
			t := min(max(-h.B/h.C[0], math.Nextafter(lo, hi)), hi)
			for rank(i, j, t) != atHi {
				t = math.Nextafter(t, hi)
			}
			for t > math.Nextafter(lo, hi) && rank(i, j, math.Nextafter(t, lo)) == atHi {
				t = math.Nextafter(t, lo)
			}
			if t < hi {
				bps = append(bps, t)
			}
		}
	}
	slices.Sort(bps)
	var want []float64
	for q := 1; q < k; q++ {
		idx := q * len(bps) / k
		for len(want) > 0 && bps[idx] <= want[len(want)-1] {
			idx++
		}
		want = append(want, bps[idx])
	}

	plan, err := QuantileCuts(context.Background(), PlanRequest{Spec: spec, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(plan.Cuts, want) {
		t.Fatalf("standalone cuts %v, want the exact quantiles %v of %d breakpoints", plan.Cuts, want, len(bps))
	}
	res, err := Outsource(context.Background(), spec, WithMode(verify.MultiSignature), WithShards(k, 0), WithPlanner(QuantileCuts))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Plan.Cuts, want) {
		t.Fatalf("Outsource cuts %v, want the standalone cuts %v", res.Plan.Cuts, want)
	}
}

// TestQuantileCutsMultivariateFallback: with no 1-D breakpoint density
// to estimate, the planner degrades to even cuts instead of failing.
func TestQuantileCutsMultivariateFallback(t *testing.T) {
	tbl, dom, err := workload.Points(workload.PointsConfig{N: 8, Dim: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Table: tbl, Template: funcs.ScalarProduct(2), Domain: dom, Signer: signer}
	q, err := QuantileCuts(context.Background(), PlanRequest{Spec: spec, K: 3, Axis: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := EvenCuts(context.Background(), PlanRequest{Spec: spec, K: 3, Axis: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Cuts) != len(e.Cuts) || q.Axis != e.Axis {
		t.Fatalf("fallback plan differs from even cuts: %+v vs %+v", q, e)
	}
	for i := range q.Cuts {
		if q.Cuts[i] != e.Cuts[i] {
			t.Fatalf("fallback cut %d differs: %v vs %v", i, q.Cuts[i], e.Cuts[i])
		}
	}
}

// TestCutsDecideTheProduct: a 1-D sharded product is a function of its
// cuts, not of how they were asked for. Even cuts requested with no
// planner, through WithPlanner(EvenCuts) and as an explicit WithPlan
// must build the same shard trees and publish the same bundle.
func TestCutsDecideTheProduct(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 60, 3, workload.Gaussian)
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		for _, k := range []int{2, 4} {
			plan, err := shard.NewPlan(spec.Domain, 0, k)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			var wantPub verify.PublicParams
			for i, ask := range [][]Option{
				{WithShards(k, 0)},
				{WithShards(k, 0), WithPlanner(EvenCuts)},
				{WithPlan(plan)},
			} {
				r, err := Outsource(ctx, spec, append(ask, WithMode(mode), WithShuffle(5))...)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, tr := range treesOf(t, r) {
					got = append(got, fmt.Sprintf("%x", tr.Fingerprint()))
				}
				if i == 0 {
					want, wantPub = got, r.Public
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v K=%d request %d: fingerprints %v, want %v", mode, k, i, got, want)
				}
				if !reflect.DeepEqual(r.Public, wantPub) {
					t.Errorf("%v K=%d request %d: published bundle %+v, want %+v", mode, k, i, r.Public, wantPub)
				}
			}
		}
	}
}
