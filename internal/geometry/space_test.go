// The spaces that partition by these values are internal/itree's; their
// tests sit beside the values they carve, in the external test package.
package geometry_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/itree"
)

func TestSpace1DPartition(t *testing.T) {
	s, err := itree.NewSpace1D(geometry.MustBox([]float64{0}, []float64{10}))
	if err != nil {
		t.Fatal(err)
	}
	root := s.Root()

	// The threshold x − 4 = 0: above is x >= 4, below x < 4.
	above, below, ok := s.Partition(root, geometry.Hyperplane{C: []float64{1}, B: -4})
	if !ok {
		t.Fatal("threshold inside the interval should split")
	}
	if !s.Contains(above, geometry.Point{5}) || s.Contains(above, geometry.Point{3}) {
		t.Error("above region should be x >= 4")
	}
	if !s.Contains(below, geometry.Point{3}) || s.Contains(below, geometry.Point{5}) {
		t.Error("below region should be x < 4")
	}
	// Boundary: above closed, below strict, at the float 4 and beside it.
	if !s.Contains(above, geometry.Point{4}) || s.Contains(above, geometry.Point{math.Nextafter(4, 0)}) {
		t.Error("above should begin at the threshold")
	}
	if s.Contains(below, geometry.Point{4}) || !s.Contains(below, geometry.Point{math.Nextafter(4, 0)}) {
		t.Error("below should end just before the threshold")
	}

	// A threshold outside the interval, or on its lower end, leaves no
	// float on one side: no split.
	for _, tau := range []float64{20, -1, 0} {
		if _, _, ok := s.Partition(root, geometry.Hyperplane{C: []float64{1}, B: -tau}); ok {
			t.Errorf("threshold %v must not split [0, 10]", tau)
		}
	}
	// One on the closed upper end splits off that float alone.
	top, _, ok := s.Partition(root, geometry.Hyperplane{C: []float64{1}, B: -10})
	if !ok || !s.Contains(top, geometry.Point{10}) || s.Contains(top, geometry.Point{math.Nextafter(10, 0)}) {
		t.Error("threshold 10 should split off the float 10")
	}
	// A hyperplane that is not a threshold splits nothing.
	for _, h := range []geometry.Hyperplane{{C: []float64{2}, B: -8}, {C: []float64{-1}, B: 4}, {C: []float64{0}, B: 1}} {
		if _, _, ok := s.Partition(root, h); ok {
			t.Errorf("%+v is not a threshold, must not split", h)
		}
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

// TestBreakpoint1D: a 1-D boundary is the float at which a pair's
// order — exact score, ties by index — changes, as the threshold x − τ.
// f1 = 2x − 5 ranks below f0 = 0 up to 2.5 and above it from 2.5 on,
// where the tie already goes to f0; f1 meets f2 = 1 at 3, where the tie
// keeps f1 first, so their boundary is the float after 3. The parallel
// f0 and f2 never change order.
func TestBreakpoint1D(t *testing.T) {
	fs := []funcs.Linear{
		{Index: 0, Coef: []float64{0}, Bias: 0},
		{Index: 1, Coef: []float64{2}, Bias: -5},
		{Index: 2, Coef: []float64{0}, Bias: 1},
	}
	inters, err := itree.Pairs1DCtx(context.Background(), fs, geometry.MustBox([]float64{0}, []float64{10}))
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(inters, func(a, b itree.Intersection) int { return a.I - b.I })
	if len(inters) != 2 || inters[0].I != 0 || inters[0].J != 1 || inters[1].I != 1 || inters[1].J != 2 {
		t.Fatalf("pairs %+v, want (0,1) and (1,2)", inters)
	}
	for k, tau := range []float64{2.5, math.Nextafter(3, 4)} {
		if h := inters[k].H; len(h.C) != 1 || h.C[0] != 1 || h.B != -tau {
			t.Errorf("pair %d: hyperplane %+v, want x − %v", k, h, tau)
		}
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
