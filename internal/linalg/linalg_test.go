package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	tests := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 32},
		{[]float64{}, []float64{}, 0},
		{[]float64{-1, 1}, []float64{1, 1}, 0},
	}
	for _, tc := range tests {
		if got := Dot(tc.a, tc.b); got != tc.want {
			t.Errorf("Dot(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot should panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestSubAddScale(t *testing.T) {
	a := []float64{5, 3}
	b := []float64{2, 1}
	if got := Sub(a, b); got[0] != 3 || got[1] != 2 {
		t.Errorf("Sub = %v", got)
	}
	if got := Add(a, b); got[0] != 7 || got[1] != 4 {
		t.Errorf("Add = %v", got)
	}
	if got := Scale(2, a); got[0] != 10 || got[1] != 6 {
		t.Errorf("Scale = %v", got)
	}
	// Inputs must be untouched.
	if a[0] != 5 || b[0] != 2 {
		t.Error("inputs mutated")
	}
}

func TestNorms(t *testing.T) {
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Errorf("Norm2 = %v", got)
	}
	if Norm2(nil) != 0 {
		t.Error("norms of empty vectors should be 0")
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, -2, 0}) {
		t.Error("finite vector misclassified")
	}
	for _, bad := range [][]float64{{math.NaN()}, {math.Inf(1)}, {0, math.Inf(-1)}} {
		if AllFinite(bad) {
			t.Errorf("AllFinite(%v) = true", bad)
		}
	}
}

func TestDotLinearity(t *testing.T) {
	f := func(a, b, c [4]float64, k float64) bool {
		if math.IsNaN(k) || math.IsInf(k, 0) {
			return true
		}
		as, bs, cs := a[:], b[:], c[:]
		for _, v := range append(append(append([]float64{}, as...), bs...), cs...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
		}
		if math.Abs(k) > 1e6 {
			return true
		}
		// dot(a+k*b, c) == dot(a,c) + k*dot(b,c) up to roundoff
		lhs := Dot(Add(as, Scale(k, bs)), cs)
		rhs := Dot(as, cs) + k*Dot(bs, cs)
		scale := 1 + math.Abs(lhs) + math.Abs(rhs)
		return math.Abs(lhs-rhs) <= 1e-6*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
