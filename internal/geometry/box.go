package geometry

import (
	"fmt"
	"math"
	"slices"
)

// Box is the axis-aligned bounded domain the data owner assigns to the
// function variables (the paper's "domain specified by the data owner",
// which forms the I-tree root's region). All verification structures
// partition a Box; queries whose weight vector falls outside it are
// rejected up front.
type Box struct {
	Lo, Hi []float64
}

// NewBox validates and returns a box with the given corners. Every
// dimension must satisfy Lo[i] < Hi[i] and all bounds must be finite.
func NewBox(lo, hi []float64) (Box, error) {
	if len(lo) != len(hi) {
		return Box{}, fmt.Errorf("geometry: box corners have lengths %d and %d", len(lo), len(hi))
	}
	if len(lo) == 0 {
		return Box{}, fmt.Errorf("geometry: box must have at least one dimension")
	}
	for i := range lo {
		if math.IsNaN(lo[i]) || math.IsNaN(hi[i]) || math.IsInf(lo[i], 0) || math.IsInf(hi[i], 0) {
			return Box{}, fmt.Errorf("geometry: box bounds must be finite (dim %d: [%v,%v])", i, lo[i], hi[i])
		}
		if lo[i] >= hi[i] {
			return Box{}, fmt.Errorf("geometry: box dim %d is empty: [%v,%v]", i, lo[i], hi[i])
		}
	}
	return Box{Lo: lo, Hi: hi}, nil
}

// MustBox is NewBox for statically known-good literals; it panics on error.
func MustBox(lo, hi []float64) Box {
	b, err := NewBox(lo, hi)
	if err != nil {
		panic(err)
	}
	return b
}

// Dim returns the box's dimensionality.
func (b Box) Dim() int { return len(b.Lo) }

// Equal reports whether the two boxes have identical corners, bit for
// bit: a box that traveled through a plan, an artifact or /params
// unchanged is Equal to its source, and nothing looser is accepted.
func (b Box) Equal(o Box) bool {
	return slices.Equal(b.Lo, o.Lo) && slices.Equal(b.Hi, o.Hi)
}

// Contains reports whether x lies inside the closed box.
func (b Box) Contains(x Point) bool {
	if len(x) != b.Dim() {
		return false
	}
	for i, v := range x {
		if v < b.Lo[i] || v > b.Hi[i] {
			return false
		}
	}
	return true
}

// Center returns the box midpoint.
func (b Box) Center() Point {
	c := make(Point, b.Dim())
	for i := range c {
		c[i] = (b.Lo[i] + b.Hi[i]) / 2
	}
	return c
}

// Halfspaces returns the 2d closed halfspace constraints equivalent to the
// box, in the fixed order lo_0, hi_0, lo_1, hi_1, ...
func (b Box) Halfspaces() []Halfspace {
	out := make([]Halfspace, 0, 2*b.Dim())
	for i := 0; i < b.Dim(); i++ {
		lo := make([]float64, b.Dim())
		lo[i] = 1 // x_i - Lo_i >= 0
		out = append(out, Halfspace{H: Hyperplane{C: lo, B: -b.Lo[i]}})
		hi := make([]float64, b.Dim())
		hi[i] = -1 // Hi_i - x_i >= 0
		out = append(out, Halfspace{H: Hyperplane{C: hi, B: b.Hi[i]}})
	}
	return out
}
