package geometry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHyperplaneEvalSide(t *testing.T) {
	h := Hyperplane{C: []float64{2, -1}, B: 3}
	tests := []struct {
		x    Point
		eval float64
		side int
	}{
		{Point{0, 0}, 3, 1},
		{Point{0, 3}, 0, 1}, // boundary counts as above
		{Point{-2, 1}, -2, -1},
		{Point{1, 10}, -5, -1},
	}
	for _, tc := range tests {
		if got := h.Eval(tc.x); math.Abs(got-tc.eval) > 1e-12 {
			t.Errorf("Eval(%v) = %v, want %v", tc.x, got, tc.eval)
		}
		if got := h.Side(tc.x); got != tc.side {
			t.Errorf("Side(%v) = %d, want %d", tc.x, got, tc.side)
		}
	}
}

func TestHyperplaneDegenerate(t *testing.T) {
	if !(Hyperplane{C: []float64{0, 0}, B: 1}).IsDegenerate() {
		t.Error("all-zero normal should be degenerate")
	}
	if (Hyperplane{C: []float64{0, 1}, B: 1}).IsDegenerate() {
		t.Error("nonzero normal should not be degenerate")
	}
}

func TestHyperplaneEncodeRoundTrip(t *testing.T) {
	f := func(c []float64, b float64) bool {
		h := Hyperplane{C: c, B: b}
		enc := h.Encode(nil)
		got, err := DecodeHyperplane(enc)
		if err != nil {
			return false
		}
		if len(got.C) != len(c) {
			return false
		}
		for i := range c {
			if math.Float64bits(got.C[i]) != math.Float64bits(c[i]) {
				return false
			}
		}
		return math.Float64bits(got.B) == math.Float64bits(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeHyperplaneTruncated(t *testing.T) {
	h := Hyperplane{C: []float64{1, 2, 3}, B: 4}
	enc := h.Encode(nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeHyperplane(enc[:cut]); err == nil {
			t.Fatalf("DecodeHyperplane accepted truncation at %d", cut)
		}
	}
}

func TestHalfspaceContainsAndNegate(t *testing.T) {
	hs := Halfspace{H: Hyperplane{C: []float64{1}, B: -2}} // x >= 2
	if !hs.Contains(Point{2}, 0) || !hs.Contains(Point{3}, 0) {
		t.Error("closed halfspace should contain boundary and interior")
	}
	if hs.Contains(Point{1.9}, 0) {
		t.Error("closed halfspace should exclude x=1.9")
	}
	neg := hs.Negate() // x < 2 (strict)
	if !neg.Strict {
		t.Error("negation of closed halfspace should be strict")
	}
	if !neg.Contains(Point{1}, 0) {
		t.Error("negated halfspace should contain x=1")
	}
	if neg.Negate().Strict {
		t.Error("double negation should restore closedness")
	}
}

func TestHalfspacesEncodeRoundTrip(t *testing.T) {
	hss := []Halfspace{
		{H: Hyperplane{C: []float64{1, 2}, B: 3}},
		{H: Hyperplane{C: []float64{-1, 0.5}, B: -7}, Strict: true},
	}
	enc := EncodeHalfspaces(nil, hss)
	got, err := DecodeHalfspaces(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(hss) {
		t.Fatalf("got %d halfspaces, want %d", len(got), len(hss))
	}
	for i := range hss {
		if got[i].Strict != hss[i].Strict || got[i].H.B != hss[i].H.B {
			t.Errorf("halfspace %d mismatch: %+v vs %+v", i, got[i], hss[i])
		}
	}
}

func TestNewBoxValidation(t *testing.T) {
	if _, err := NewBox([]float64{0}, []float64{0}); err == nil {
		t.Error("empty interval should fail")
	}
	if _, err := NewBox([]float64{0, 1}, []float64{1}); err == nil {
		t.Error("mismatched corners should fail")
	}
	if _, err := NewBox(nil, nil); err == nil {
		t.Error("zero-dimensional box should fail")
	}
	if _, err := NewBox([]float64{math.Inf(-1)}, []float64{1}); err == nil {
		t.Error("infinite bound should fail")
	}
	b, err := NewBox([]float64{-1, 0}, []float64{1, 5})
	if err != nil {
		t.Fatalf("NewBox: %v", err)
	}
	if !b.Contains(Point{0, 2.5}) || b.Contains(Point{0, 6}) || b.Contains(Point{0}) {
		t.Error("Contains misbehaves")
	}
	c := b.Center()
	if c[0] != 0 || c[1] != 2.5 {
		t.Errorf("Center = %v", c)
	}
}

func TestBoxHalfspaces(t *testing.T) {
	b := MustBox([]float64{-1, 2}, []float64{1, 4})
	hss := b.Halfspaces()
	if len(hss) != 4 {
		t.Fatalf("got %d halfspaces, want 4", len(hss))
	}
	inside := Point{0, 3}
	outside := Point{0, 5}
	for _, hs := range hss {
		if !hs.Contains(inside, 0) {
			t.Errorf("halfspace %+v should contain %v", hs, inside)
		}
	}
	violations := 0
	for _, hs := range hss {
		if !hs.Contains(outside, 0) {
			violations++
		}
	}
	if violations == 0 {
		t.Error("outside point violates no halfspace")
	}
}

func TestSpace1DPartition(t *testing.T) {
	s, err := NewSpace1D(MustBox([]float64{0}, []float64{10}))
	if err != nil {
		t.Fatal(err)
	}
	root := s.Root()

	// 2x - 8 = 0 -> breakpoint x=4, positive slope: above is x >= 4.
	above, below, ok := s.Partition(root, Hyperplane{C: []float64{2}, B: -8})
	if !ok {
		t.Fatal("hyperplane with interior breakpoint should split")
	}
	if !s.Contains(above, Point{5}) || s.Contains(above, Point{3}) {
		t.Error("above region should be x >= 4")
	}
	if !s.Contains(below, Point{3}) || s.Contains(below, Point{5}) {
		t.Error("below region should be x < 4")
	}
	// Boundary: above closed, below strict.
	if !s.Contains(above, Point{4}) {
		t.Error("above should include the breakpoint")
	}
	if s.Contains(below, Point{4}) {
		t.Error("below should exclude the breakpoint")
	}

	// Negative slope flips sides: -1*x + 4 >= 0 is x <= 4.
	above2, below2, ok := s.Partition(root, Hyperplane{C: []float64{-1}, B: 4})
	if !ok {
		t.Fatal("split expected")
	}
	if !s.Contains(above2, Point{3}) || s.Contains(above2, Point{5}) {
		t.Error("above of negative-slope hyperplane should be x <= 4")
	}
	if !s.Contains(below2, Point{5}) {
		t.Error("below of negative-slope hyperplane should be x > 4")
	}

	// Breakpoint outside the interval does not split.
	if _, _, ok := s.Partition(root, Hyperplane{C: []float64{1}, B: -20}); ok {
		t.Error("breakpoint x=20 is outside [0,10], must not split")
	}
	// Breakpoint exactly at an endpoint does not split.
	if _, _, ok := s.Partition(root, Hyperplane{C: []float64{1}, B: 0}); ok {
		t.Error("breakpoint at endpoint must not split")
	}
	// Degenerate hyperplane does not split.
	if _, _, ok := s.Partition(root, Hyperplane{C: []float64{0}, B: 1}); ok {
		t.Error("degenerate hyperplane must not split")
	}
}

func TestSpace1DWitnessInsideRegion(t *testing.T) {
	s, _ := NewSpace1D(MustBox([]float64{0}, []float64{1}))
	r := s.Root()
	for i := 0; i < 6; i++ {
		// Repeatedly split at the witness-derived hyperplane's right half.
		w := s.Witness(r)
		if !s.Contains(r, w) {
			t.Fatalf("witness %v not inside its region", w)
		}
		above, _, ok := s.Partition(r, Hyperplane{C: []float64{1}, B: -w[0]})
		if !ok {
			t.Fatalf("split at witness %v failed", w)
		}
		r = above
	}
}

func TestSpace1DHalfspacesDescribeInterval(t *testing.T) {
	s, _ := NewSpace1D(MustBox([]float64{0}, []float64{10}))
	above, below, ok := s.Partition(s.Root(), Hyperplane{C: []float64{1}, B: -4})
	if !ok {
		t.Fatal("split expected")
	}
	for _, tc := range []struct {
		r      Region
		in     Point
		out    Point
		strict Point // excluded boundary point, NaN x to skip
	}{
		{above, Point{7}, Point{2}, Point{math.NaN()}},
		{below, Point{2}, Point{7}, Point{4}},
	} {
		hss := s.Halfspaces(tc.r)
		if len(hss) != 2 {
			t.Fatalf("got %d halfspaces, want 2", len(hss))
		}
		containsAll := func(x Point) bool {
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
	tp, ok := Breakpoint1D(Hyperplane{C: []float64{2}, B: -5})
	if !ok {
		t.Fatal("expected a breakpoint")
	}
	if f, _ := tp.Float64(); math.Abs(f-2.5) > 1e-15 {
		t.Errorf("breakpoint = %v, want 2.5", f)
	}
	if _, ok := Breakpoint1D(Hyperplane{C: []float64{0}, B: 1}); ok {
		t.Error("degenerate hyperplane should have no breakpoint")
	}
}

func TestSpaceNDPartitionAndWitness(t *testing.T) {
	s, err := NewSpaceND(MustBox([]float64{0, 0}, []float64{10, 10}))
	if err != nil {
		t.Fatal(err)
	}
	root := s.Root()

	// x - y = 0 splits the square.
	h := Hyperplane{C: []float64{1, -1}, B: 0}
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
	if _, _, ok := s.Partition(root, Hyperplane{C: []float64{1, 0}, B: 5}); ok {
		t.Error("x = -5 does not meet [0,10]^2")
	}
	// Nor one that touches only a corner within sepTol.
	if _, _, ok := s.Partition(above, Hyperplane{C: []float64{1, 0}, B: 0}); ok {
		t.Error("x = 0 only grazes the above region's closure")
	}
}

func TestSpaceNDNestedPartitions(t *testing.T) {
	s, _ := NewSpaceND(MustBox([]float64{0, 0}, []float64{1, 1}))
	r := s.Root()
	hps := []Hyperplane{
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
		// Halfspace descriptions must classify the two witnesses correctly.
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
	s, _ := NewSpaceND(MustBox([]float64{-1, -1, -1}, []float64{1, 1, 1}))
	for trial := 0; trial < 100; trial++ {
		r := s.Root()
		depth := rng.Intn(4)
		ok := true
		for i := 0; i < depth && ok; i++ {
			h := Hyperplane{
				C: []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
				B: rng.NormFloat64() * 0.3,
			}
			var above, below Region
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
