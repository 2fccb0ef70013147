package itree

import (
	"fmt"
	"math"

	"aqverify/internal/geometry"
	"aqverify/internal/linalg"
	"aqverify/internal/lp"
)

// Region is an opaque handle to a convex subdomain managed by a Space.
// Callers treat regions as immutable values: Partition returns fresh
// subregions and never mutates its input.
type Region interface{}

// Space abstracts the domain-partitioning geometry the I-tree is built
// over. Two implementations exist:
//
//   - Space1D: float thresholds over an interval domain, used for
//     univariate ranking functions (the scale regime of the paper's
//     evaluation).
//   - SpaceND: an LP-backed polytope space for d >= 2 variables, where
//     split tests are linear-programming feasibility problems.
//
// The I-tree construction algorithm (paper §3.1 step 1) is generic over
// this interface.
type Space interface {
	// Dim returns the number of function variables.
	Dim() int

	// Root returns the region covering the owner-specified domain.
	Root() Region

	// Partition tests whether the hyperplane h genuinely splits r (has
	// interior points of r strictly on both sides). When it does, it
	// returns the two subregions: above is r ∩ {h >= 0} and below is
	// r ∩ {h < 0}, matching the I-tree's a/b branching convention.
	Partition(r Region, h geometry.Hyperplane) (above, below Region, splits bool)

	// Witness returns a point in the interior of r, used to sort the
	// record functions for r (any interior point yields the same order,
	// by the function-sortability theorem).
	Witness(r Region) geometry.Point

	// Halfspaces returns a halfspace description of r. For the
	// multi-signature scheme this is "the set of inequality functions
	// that determines the subdomain", shipped inside verification
	// objects and bound into the subdomain digest.
	Halfspaces(r Region) []geometry.Halfspace

	// Contains reports whether x lies in r, up to the space's numeric
	// tolerance.
	Contains(r Region, x geometry.Point) bool
}

// Space1D is the space for univariate ranking functions over the float
// line: every query input is a float64, so a region is the set of floats
// in an interval, and every boundary is a threshold τ, the hyperplane
// x − τ = 0 (C = [1], B = −τ), whose float sign is exact. The regions
// it carves are closed below and open above ([lo, τ) and [τ, hi]), so
// x = τ lies above, as Search branches.
type Space1D struct {
	domain geometry.Box
}

// Interval1D is Space1D's Region implementation, held by pointer (so a
// tree's regions can live in one slab): the floats x with Lo ≤ x < Hi
// when HiStrict, Lo ≤ x ≤ Hi otherwise. Ends are always finite because
// the root region is the owner-specified bounded domain.
type Interval1D struct {
	Lo, Hi   float64
	HiStrict bool
}

// NewSpace1D builds the 1-D space over the given domain box, which must
// be one-dimensional with finite bounds.
func NewSpace1D(domain geometry.Box) (*Space1D, error) {
	if domain.Dim() != 1 {
		return nil, fmt.Errorf("itree: Space1D needs a 1-D domain, got %d-D", domain.Dim())
	}
	for _, v := range [2]float64{domain.Lo[0], domain.Hi[0]} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return nil, fmt.Errorf("itree: non-finite domain bounds")
		}
	}
	return &Space1D{domain: domain}, nil
}

// Dim implements Space.
func (s *Space1D) Dim() int { return 1 }

// Root implements Space: the whole domain interval, closed on both ends.
func (s *Space1D) Root() Region {
	return &Interval1D{Lo: s.domain.Lo[0], Hi: s.domain.Hi[0]}
}

// Partition implements Space for a threshold x − τ = 0 (any other
// hyperplane splits nothing): it splits the interval when some float of
// it lies below τ and some at or above, returning above = [τ, Hi] and
// below = [Lo, τ).
func (s *Space1D) Partition(r Region, h geometry.Hyperplane) (Region, Region, bool) {
	iv := r.(*Interval1D)
	if len(h.C) != 1 || h.C[0] != 1 {
		return nil, nil, false
	}
	t := -h.B
	if !(iv.Lo < t && (t < iv.Hi || t == iv.Hi && !iv.HiStrict)) {
		return nil, nil, false
	}
	return &Interval1D{Lo: t, Hi: iv.Hi, HiStrict: iv.HiStrict}, &Interval1D{Lo: iv.Lo, Hi: t, HiStrict: true}, true
}

// Witness implements Space: the interval's Witness.
func (s *Space1D) Witness(r Region) geometry.Point {
	return geometry.Point{r.(*Interval1D).Witness()}
}

// Witness returns a float of the interval: the float halfway between
// its ends when that lies strictly between them, else Lo. Every float of
// a leaf sorts the functions alike.
func (iv Interval1D) Witness() float64 {
	if x := iv.Lo + float64((iv.Hi-iv.Lo)*0.5); iv.Lo < x && x < iv.Hi {
		return x
	}
	return iv.Lo
}

// Halfspaces implements Space: x − Lo ≥ 0 and Hi − x ≥ 0 (> 0 when
// HiStrict), two constraints so the multi-signature verification object
// stays small. Both signs are exact in float64.
func (s *Space1D) Halfspaces(r Region) []geometry.Halfspace {
	iv := r.(*Interval1D)
	return []geometry.Halfspace{
		{H: geometry.Hyperplane{C: []float64{1}, B: -iv.Lo}},
		{H: geometry.Hyperplane{C: []float64{-1}, B: iv.Hi}, Strict: iv.HiStrict},
	}
}

// Contains implements Space, exactly.
func (s *Space1D) Contains(r Region, x geometry.Point) bool {
	if len(x) != 1 {
		return false
	}
	iv := r.(*Interval1D)
	return iv.Lo <= x[0] && (x[0] < iv.Hi || x[0] == iv.Hi && !iv.HiStrict)
}

// SpaceND is the LP-backed polytope space for ranking functions of two or
// more variables. A region is the owner's domain box intersected with the
// halfspaces accumulated along an I-tree path; deciding whether an
// intersection hyperplane splits a region reduces to maximizing and
// minimizing the hyperplane's affine form over the region.
//
// The split test is tolerance-based, not exact: each hyperplane reaches
// the LP divided by its ‖C‖ (unitND), so sepTol is a distance and no
// split decision depends on the data's units. But a region thinner than
// sepTol on one side is not split, so for d >= 3 the subdomain count can
// depend on the insertion order, and the LP's verdict is not certified.
type SpaceND struct {
	domain geometry.Box
	// sepTol is the strict-separation tolerance: a hyperplane only counts
	// as splitting a region if the region extends at least sepTol (a
	// distance) on both sides. This suppresses degenerate sliver
	// subdomains created by float roundoff, which would otherwise have no
	// reliably computable interior witness.
	sepTol float64
	// boxRows/boxRhs cache the domain box as LP constraints (A x <= b).
	boxRows [][]float64
	boxRhs  []float64
}

// RegionND is SpaceND's Region implementation: the list of halfspaces
// accumulated by Partition calls (the domain box is implicit).
type RegionND struct {
	HSS []geometry.Halfspace
}

// DefaultSepTol is the default strict-separation tolerance for SpaceND.
const DefaultSepTol = 1e-7

// NewSpaceND builds an LP-backed space over the given domain box.
func NewSpaceND(domain geometry.Box) (*SpaceND, error) {
	if domain.Dim() < 1 {
		return nil, fmt.Errorf("itree: SpaceND needs a positive-dimension domain")
	}
	s := &SpaceND{domain: domain, sepTol: DefaultSepTol}
	for i := 0; i < domain.Dim(); i++ {
		row := make([]float64, domain.Dim())
		row[i] = 1
		s.boxRows = append(s.boxRows, row)
		s.boxRhs = append(s.boxRhs, domain.Hi[i])
		row = make([]float64, domain.Dim())
		row[i] = -1
		s.boxRows = append(s.boxRows, row)
		s.boxRhs = append(s.boxRhs, -domain.Lo[i])
	}
	return s, nil
}

// Dim implements Space.
func (s *SpaceND) Dim() int { return s.domain.Dim() }

// Root implements Space.
func (s *SpaceND) Root() Region { return RegionND{} }

// unitND returns the hyperplane C·X + B = 0 divided by ‖C‖, the form
// the LPs see: its value at X is X's signed distance from the
// hyperplane. The stored hyperplane is never rewritten.
func unitND(h geometry.Hyperplane) ([]float64, float64) {
	n := linalg.Norm2(h.C)
	c := make([]float64, len(h.C))
	for i, v := range h.C {
		c[i] = v / n
	}
	return c, h.B / n
}

// constraints materializes box + region halfspaces as A x <= b rows.
// A halfspace C·X + B >= 0 becomes -C·X <= B, in its unit form.
func (s *SpaceND) constraints(r RegionND) ([][]float64, []float64) {
	a := make([][]float64, 0, len(s.boxRows)+len(r.HSS))
	b := make([]float64, 0, len(s.boxRhs)+len(r.HSS))
	a = append(a, s.boxRows...)
	b = append(b, s.boxRhs...)
	for _, hs := range r.HSS {
		c, bias := unitND(hs.H)
		a = append(a, linalg.Scale(-1, c))
		b = append(b, bias)
	}
	return a, b
}

// Partition implements Space. The hyperplane splits the region iff the
// region reaches farther than sepTol from it on both sides.
func (s *SpaceND) Partition(r Region, h geometry.Hyperplane) (Region, Region, bool) {
	reg := r.(RegionND)
	if h.IsDegenerate() || len(h.C) != s.Dim() {
		return nil, nil, false
	}
	a, b := s.constraints(reg)
	c, bias := unitND(h)

	maxRes, err := lp.Maximize(c, a, b)
	if err != nil || maxRes.Status != lp.Optimal || maxRes.Objective+bias <= s.sepTol {
		return nil, nil, false
	}
	minRes, err := lp.Minimize(c, a, b)
	if err != nil || minRes.Status != lp.Optimal || minRes.Objective+bias >= -s.sepTol {
		return nil, nil, false
	}

	above := RegionND{HSS: appendHS(reg.HSS, geometry.Halfspace{H: h})}
	below := RegionND{HSS: appendHS(reg.HSS, geometry.Halfspace{H: h}.Negate())}
	return above, below, true
}

// appendHS appends to a copy so sibling regions never share backing
// arrays.
func appendHS(hss []geometry.Halfspace, hs geometry.Halfspace) []geometry.Halfspace {
	out := make([]geometry.Halfspace, len(hss), len(hss)+1)
	copy(out, hss)
	return append(out, hs)
}

// Witness implements Space via a Chebyshev-style interior-point LP:
// maximize t subject to C·X + B >= t*||C|| for every constraint, each
// passed in its unit form (unitND). When the region has positive volume
// the optimum has t > 0 and X is strictly interior.
func (s *SpaceND) Witness(r Region) geometry.Point {
	reg := r.(RegionND)
	d := s.Dim()
	// Variables: X (d entries) then t.
	var a [][]float64
	var b []float64
	addRow := func(h geometry.Hyperplane) {
		// Unit constraint C·X + B >= t  =>  -C·X + t <= B.
		c, bias := unitND(h)
		row := make([]float64, d+1)
		for i, v := range c {
			row[i] = -v
		}
		row[d] = 1
		a = append(a, row)
		b = append(b, bias)
	}
	for i := 0; i < d; i++ {
		lo := make([]float64, d)
		lo[i] = 1
		addRow(geometry.Hyperplane{C: lo, B: -s.domain.Lo[i]})
		hi := make([]float64, d)
		hi[i] = -1
		addRow(geometry.Hyperplane{C: hi, B: s.domain.Hi[i]})
	}
	for _, hs := range reg.HSS {
		addRow(hs.H)
	}
	obj := make([]float64, d+1)
	obj[d] = 1
	res, err := lp.Maximize(obj, a, b)
	if err != nil || res.Status != lp.Optimal {
		// A region produced by Partition always has an interior, so this
		// is unreachable in practice; fall back to the box center rather
		// than panicking on numerically pathological input.
		return s.domain.Center()
	}
	return geometry.Point(res.X[:d])
}

// Halfspaces implements Space: the box constraints followed by the
// accumulated intersection halfspaces.
func (s *SpaceND) Halfspaces(r Region) []geometry.Halfspace {
	reg := r.(RegionND)
	out := s.domain.Halfspaces()
	return append(out, reg.HSS...)
}

// Contains implements Space with tolerance sepTol/2, tighter than the
// separation used when carving regions so points produced by Witness
// always pass.
func (s *SpaceND) Contains(r Region, x geometry.Point) bool {
	if len(x) != s.Dim() || !s.domain.Contains(x) {
		return false
	}
	reg := r.(RegionND)
	for _, hs := range reg.HSS {
		if !hs.Contains(x, s.sepTol/2) {
			return false
		}
	}
	return true
}
