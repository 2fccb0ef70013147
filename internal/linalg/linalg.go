// Package linalg provides the small dense vector helpers used by the
// geometry and LP substrates. Everything operates on []float64 and is
// deliberately allocation-conscious: callers pass destination slices where
// reuse matters.
package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It panics if lengths differ,
// because a length mismatch is always a programming error in this codebase.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: dot of mismatched lengths %d and %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		// The explicit conversion rounds the product before the add: it
		// forbids a fused multiply-add, so the sum is the same on every
		// CPU (arm64, ppc64le, s390x and riscv64 would fuse otherwise).
		s += float64(v * b[i])
	}
	return s
}

// Sub returns a new vector a - b.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: sub of mismatched lengths %d and %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Scale returns a new vector k*a.
func Scale(k float64, a []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = k * a[i]
	}
	return out
}

// Norm2 returns the Euclidean norm of a.
func Norm2(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += float64(v * v) // no fused multiply-add, as in Dot
	}
	return math.Sqrt(s)
}

// AllFinite reports whether every component of a is finite (not NaN or
// ±Inf). The verification structures reject non-finite attribute values up
// front so that downstream hashing and geometry are total.
func AllFinite(a []float64) bool {
	for _, v := range a {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
