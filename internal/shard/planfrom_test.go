package shard_test

import (
	"testing"

	"aqverify/internal/geometry"
	"aqverify/internal/shard"
)

// TestPlanFromBoxes: the plan survives the round trip through its own
// sub-boxes, in 1-D and with an interior axis of a 3-D domain.
func TestPlanFromBoxes(t *testing.T) {
	dom := geometry.MustBox([]float64{0, -1, 2}, []float64{8, 1, 5})
	for _, axis := range []int{0, 1, 2} {
		plan := mustPlan(t, dom, axis, 4)
		got, err := shard.PlanFromBoxes(plan.Boxes)
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
	single, err := shard.PlanFromBoxes([]geometry.Box{dom})
	if err != nil || single.K() != 1 {
		t.Fatalf("single box: K=%d err=%v", single.K(), err)
	}
}

// TestPlanFromBoxesRejects covers the malformed-tiling error paths.
func TestPlanFromBoxesRejects(t *testing.T) {
	box := func(lo, hi float64) geometry.Box {
		return geometry.MustBox([]float64{lo, 0}, []float64{hi, 1})
	}
	if _, err := shard.PlanFromBoxes(nil); err == nil {
		t.Error("empty box list accepted")
	}
	// Gap between boxes.
	if _, err := shard.PlanFromBoxes([]geometry.Box{box(0, 1), box(2, 3)}); err == nil {
		t.Error("gapped tiling accepted")
	}
	// Overlap.
	if _, err := shard.PlanFromBoxes([]geometry.Box{box(0, 2), box(1, 3)}); err == nil {
		t.Error("overlapping tiling accepted")
	}
	// Wrong order (right box first).
	if _, err := shard.PlanFromBoxes([]geometry.Box{box(1, 2), box(0, 1)}); err == nil {
		t.Error("unordered tiling accepted")
	}
	// Disagreement on the other axis.
	odd := geometry.MustBox([]float64{1, 0}, []float64{2, 4})
	if _, err := shard.PlanFromBoxes([]geometry.Box{box(0, 1), odd}); err == nil {
		t.Error("off-axis disagreement accepted")
	}
	// Mixed dimensionality.
	if _, err := shard.PlanFromBoxes([]geometry.Box{box(0, 1), geometry.MustBox([]float64{1}, []float64{2})}); err == nil {
		t.Error("mixed dimensions accepted")
	}
}
