package geometry

import (
	"math"
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
