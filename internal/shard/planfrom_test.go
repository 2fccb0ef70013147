package shard

import (
	"testing"

	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/sig"
	"aqverify/internal/workload"
)

// TestPlanFromBoxes: the plan survives the round trip through its own
// sub-boxes, in 1-D and with an interior axis of a 3-D domain.
func TestPlanFromBoxes(t *testing.T) {
	dom := geometry.MustBox([]float64{0, -1, 2}, []float64{8, 1, 5})
	for _, axis := range []int{0, 1, 2} {
		plan := mustPlan(t, dom, axis, 4)
		got, err := PlanFromBoxes(plan.Boxes)
		if err != nil {
			t.Fatalf("axis %d: %v", axis, err)
		}
		if got.Axis != axis || got.K() != plan.K() {
			t.Fatalf("axis %d: reconstructed axis %d, K %d", axis, got.Axis, got.K())
		}
		for i, c := range plan.Cuts {
			if got.Cuts[i] != c {
				t.Fatalf("axis %d: cut %d = %v, want %v", axis, i, got.Cuts[i], c)
			}
		}
		if !got.Domain.Equal(dom) {
			t.Fatalf("axis %d: reconstructed domain %v-%v", axis, got.Domain.Lo, got.Domain.Hi)
		}
	}
	// Trivial single-box plan.
	single, err := PlanFromBoxes([]geometry.Box{dom})
	if err != nil || single.K() != 1 {
		t.Fatalf("single box: K=%d err=%v", single.K(), err)
	}
}

// TestPlanFromBoxesRejects covers the malformed-tiling error paths.
func TestPlanFromBoxesRejects(t *testing.T) {
	box := func(lo, hi float64) geometry.Box {
		return geometry.MustBox([]float64{lo, 0}, []float64{hi, 1})
	}
	if _, err := PlanFromBoxes(nil); err == nil {
		t.Error("empty box list accepted")
	}
	// Gap between boxes.
	if _, err := PlanFromBoxes([]geometry.Box{box(0, 1), box(2, 3)}); err == nil {
		t.Error("gapped tiling accepted")
	}
	// Overlap.
	if _, err := PlanFromBoxes([]geometry.Box{box(0, 2), box(1, 3)}); err == nil {
		t.Error("overlapping tiling accepted")
	}
	// Wrong order (right box first).
	if _, err := PlanFromBoxes([]geometry.Box{box(1, 2), box(0, 1)}); err == nil {
		t.Error("unordered tiling accepted")
	}
	// Disagreement on the other axis.
	odd := geometry.MustBox([]float64{1, 0}, []float64{2, 4})
	if _, err := PlanFromBoxes([]geometry.Box{box(0, 1), odd}); err == nil {
		t.Error("off-axis disagreement accepted")
	}
	// Mixed dimensionality.
	if _, err := PlanFromBoxes([]geometry.Box{box(0, 1), geometry.MustBox([]float64{1}, []float64{2})}); err == nil {
		t.Error("mixed dimensions accepted")
	}
}

// TestBuildOneMatchesBuild: the standalone per-shard builder produces
// trees that answer exactly like the set builder's — the property the
// multi-process deployment rests on.
func TestBuildOneMatchesBuild(t *testing.T) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{
		Mode: core.MultiSignature, Signer: signer, Domain: dom,
		Template: funcs.AffineLine(0, 1), Shuffle: true, Seed: 1,
	}
	plan := mustPlan(t, dom, 0, 3)
	set, err := Build(tbl, p, plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < plan.K(); i++ {
		solo, err := BuildOne(tbl, p, plan, i)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		want, got := set.Trees[i], solo
		if want.NumSubdomains() != got.NumSubdomains() {
			t.Fatalf("shard %d: %d subdomains standalone, %d in the set",
				i, got.NumSubdomains(), want.NumSubdomains())
		}
		// Sample queries across (and on the edges of) the sub-box; both
		// trees must return identical windows and records.
		box := plan.Boxes[i]
		for j := 0; j <= 6; j++ {
			x := box.Lo[0] + (box.Hi[0]-box.Lo[0])*float64(j)/6
			if id, err := plan.Route(geometry.Point{x}); err != nil || id != i {
				continue // edge owned by the neighbor
			}
			q := query.NewTopK(geometry.Point{x}, 3)
			a1, err1 := want.Process(q, &metrics.Counter{})
			a2, err2 := got.Process(q, &metrics.Counter{})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("shard %d x=%v: set err=%v, standalone err=%v", i, x, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if a1.VO.ListLen != a2.VO.ListLen || a1.VO.Start != a2.VO.Start ||
				len(a1.Records) != len(a2.Records) {
				t.Fatalf("shard %d x=%v: windows differ", i, x)
			}
			for r := range a1.Records {
				if a1.Records[r].ID != a2.Records[r].ID {
					t.Fatalf("shard %d x=%v: record %d differs", i, x, r)
				}
			}
		}
	}
	if _, err := BuildOne(tbl, p, plan, plan.K()); err == nil {
		t.Error("out-of-range shard index accepted")
	}
}
