// The spaces that partition by these values are internal/itree's; their
// tests sit beside the values they carve, in the external test package.
package geometry_test

import (
	"math"
	"math/rand"
	"testing"

	"aqverify/internal/geometry"
	"aqverify/internal/itree"
)

func TestSpace1DPartition(t *testing.T) {
	s, err := itree.NewSpace1D(geometry.MustBox([]float64{0}, []float64{10}))
	if err != nil {
		t.Fatal(err)
	}
	root := s.Root()

	// 2x - 8 = 0 -> breakpoint x=4, positive slope: above is x >= 4.
	above, below, ok := s.Partition(root, geometry.Hyperplane{C: []float64{2}, B: -8})
	if !ok {
		t.Fatal("hyperplane with interior breakpoint should split")
	}
	if !s.Contains(above, geometry.Point{5}) || s.Contains(above, geometry.Point{3}) {
		t.Error("above region should be x >= 4")
	}
	if !s.Contains(below, geometry.Point{3}) || s.Contains(below, geometry.Point{5}) {
		t.Error("below region should be x < 4")
	}
	// Boundary: above closed, below strict.
	if !s.Contains(above, geometry.Point{4}) {
		t.Error("above should include the breakpoint")
	}
	if s.Contains(below, geometry.Point{4}) {
		t.Error("below should exclude the breakpoint")
	}

	// Negative slope flips sides: -1*x + 4 >= 0 is x <= 4.
	above2, below2, ok := s.Partition(root, geometry.Hyperplane{C: []float64{-1}, B: 4})
	if !ok {
		t.Fatal("split expected")
	}
	if !s.Contains(above2, geometry.Point{3}) || s.Contains(above2, geometry.Point{5}) {
		t.Error("above of negative-slope hyperplane should be x <= 4")
	}
	if !s.Contains(below2, geometry.Point{5}) {
		t.Error("below of negative-slope hyperplane should be x > 4")
	}

	// Breakpoint outside the interval does not split.
	if _, _, ok := s.Partition(root, geometry.Hyperplane{C: []float64{1}, B: -20}); ok {
		t.Error("breakpoint x=20 is outside [0,10], must not split")
	}
	// Breakpoint exactly at an endpoint does not split.
	if _, _, ok := s.Partition(root, geometry.Hyperplane{C: []float64{1}, B: 0}); ok {
		t.Error("breakpoint at endpoint must not split")
	}
	// Degenerate hyperplane does not split.
	if _, _, ok := s.Partition(root, geometry.Hyperplane{C: []float64{0}, B: 1}); ok {
		t.Error("degenerate hyperplane must not split")
	}
}

func TestSpace1DWitnessInsideRegion(t *testing.T) {
	s, _ := itree.NewSpace1D(geometry.MustBox([]float64{0}, []float64{1}))
	r := s.Root()
	for i := 0; i < 6; i++ {
		// Repeatedly split at the witness-derived hyperplane's right half.
		w := s.Witness(r)
		if !s.Contains(r, w) {
			t.Fatalf("witness %v not inside its region", w)
		}
		above, _, ok := s.Partition(r, geometry.Hyperplane{C: []float64{1}, B: -w[0]})
		if !ok {
			t.Fatalf("split at witness %v failed", w)
		}
		r = above
	}
}

func TestSpace1DHalfspacesDescribeInterval(t *testing.T) {
	s, _ := itree.NewSpace1D(geometry.MustBox([]float64{0}, []float64{10}))
	above, below, ok := s.Partition(s.Root(), geometry.Hyperplane{C: []float64{1}, B: -4})
	if !ok {
		t.Fatal("split expected")
	}
	for _, tc := range []struct {
		r      itree.Region
		in     geometry.Point
		out    geometry.Point
		strict geometry.Point // excluded boundary point, NaN x to skip
	}{
		{above, geometry.Point{7}, geometry.Point{2}, geometry.Point{math.NaN()}},
		{below, geometry.Point{2}, geometry.Point{7}, geometry.Point{4}},
	} {
		hss := s.Halfspaces(tc.r)
		if len(hss) != 2 {
			t.Fatalf("got %d halfspaces, want 2", len(hss))
		}
		containsAll := func(x geometry.Point) bool {
			for _, hs := range hss {
				if !hs.Contains(x, 0) {
					return false
				}
			}
			return true
		}
		if !containsAll(tc.in) {
			t.Errorf("halfspaces exclude interior point %v", tc.in)
		}
		if containsAll(tc.out) {
			t.Errorf("halfspaces include exterior point %v", tc.out)
		}
	}
}

func TestBreakpoint1D(t *testing.T) {
	tp, ok := itree.Breakpoint1D(geometry.Hyperplane{C: []float64{2}, B: -5})
	if !ok {
		t.Fatal("expected a breakpoint")
	}
	if f, _ := tp.Float64(); math.Abs(f-2.5) > 1e-15 {
		t.Errorf("breakpoint = %v, want 2.5", f)
	}
	if _, ok := itree.Breakpoint1D(geometry.Hyperplane{C: []float64{0}, B: 1}); ok {
		t.Error("degenerate hyperplane should have no breakpoint")
	}
}

func TestSpaceNDPartitionAndWitness(t *testing.T) {
	s, err := itree.NewSpaceND(geometry.MustBox([]float64{0, 0}, []float64{10, 10}))
	if err != nil {
		t.Fatal(err)
	}
	root := s.Root()

	// x - y = 0 splits the square.
	h := geometry.Hyperplane{C: []float64{1, -1}, B: 0}
	above, below, ok := s.Partition(root, h)
	if !ok {
		t.Fatal("diagonal must split the square")
	}
	wa := s.Witness(above)
	wb := s.Witness(below)
	if h.Eval(wa) <= 0 {
		t.Errorf("above witness %v not above", wa)
	}
	if h.Eval(wb) >= 0 {
		t.Errorf("below witness %v not below", wb)
	}
	if !s.Contains(above, wa) || !s.Contains(below, wb) {
		t.Error("witnesses must lie in their regions")
	}
	if s.Contains(above, wb) {
		t.Error("below witness must not be in above region")
	}

	// A hyperplane entirely outside the region must not split.
	if _, _, ok := s.Partition(root, geometry.Hyperplane{C: []float64{1, 0}, B: 5}); ok {
		t.Error("x = -5 does not meet [0,10]^2")
	}
	// Nor one that touches only a corner within sepTol.
	if _, _, ok := s.Partition(above, geometry.Hyperplane{C: []float64{1, 0}, B: 0}); ok {
		t.Error("x = 0 only grazes the above region's closure")
	}
}

func TestSpaceNDNestedPartitions(t *testing.T) {
	s, _ := itree.NewSpaceND(geometry.MustBox([]float64{0, 0}, []float64{1, 1}))
	r := s.Root()
	hps := []geometry.Hyperplane{
		{C: []float64{1, -1}, B: 0},    // x = y
		{C: []float64{1, 1}, B: -1},    // x + y = 1
		{C: []float64{1, 0}, B: -0.75}, // x = 0.75
		{C: []float64{0, 1}, B: -0.25}, // y = 0.25
	}
	for _, h := range hps {
		above, below, ok := s.Partition(r, h)
		if !ok {
			// Fine: the shrinking region may no longer meet later planes.
			continue
		}
		// geometry.Halfspace descriptions must classify the two witnesses correctly.
		wa, wb := s.Witness(above), s.Witness(below)
		if !s.Contains(above, wa) || !s.Contains(below, wb) {
			t.Fatalf("witnesses escaped their regions after split at %+v", h)
		}
		r = above
	}
	hss := s.Halfspaces(r)
	w := s.Witness(r)
	for _, hs := range hss {
		if !hs.Contains(w, 1e-9) {
			t.Fatalf("final witness %v violates halfspace %+v", w, hs)
		}
	}
}

func TestSpaceNDRandomSplitConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s, _ := itree.NewSpaceND(geometry.MustBox([]float64{-1, -1, -1}, []float64{1, 1, 1}))
	for trial := 0; trial < 100; trial++ {
		r := s.Root()
		depth := rng.Intn(4)
		ok := true
		for i := 0; i < depth && ok; i++ {
			h := geometry.Hyperplane{
				C: []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
				B: rng.NormFloat64() * 0.3,
			}
			var above, below itree.Region
			above, below, ok = s.Partition(r, h)
			if !ok {
				continue
			}
			if rng.Intn(2) == 0 {
				r = above
			} else {
				r = below
			}
			_ = below
		}
		w := s.Witness(r)
		if !s.Contains(r, w) {
			t.Fatalf("trial %d: witness %v outside region", trial, w)
		}
	}
}
