package itree

import (
	"fmt"
	"math/big"

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
//   - Space1D: exact rational arithmetic over an interval domain, used for
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

// Space1D is the exact-arithmetic space for univariate ranking functions.
// Regions are open/half-open intervals whose endpoints are big.Rat
// breakpoints (every breakpoint -B/C of float64-coefficient lines is
// exactly representable as a rational), so subdomain boundaries never
// suffer float drift: two lines either cross inside a region or they do
// not, with no epsilon ambiguity.
type Space1D struct {
	domain geometry.Box
	lo, hi *big.Rat
}

// Interval1D is Space1D's Region implementation. Endpoints are always
// finite because the root region is the owner-specified bounded domain.
// The strictness flags record whether each endpoint is excluded:
// loStrict means x > lo, otherwise x >= lo (and symmetrically for hi).
type Interval1D struct {
	Lo, Hi             *big.Rat
	LoStrict, HiStrict bool
}

// NewSpace1D builds the exact 1-D space over the given domain box, which
// must be one-dimensional.
func NewSpace1D(domain geometry.Box) (*Space1D, error) {
	if domain.Dim() != 1 {
		return nil, fmt.Errorf("itree: Space1D needs a 1-D domain, got %d-D", domain.Dim())
	}
	lo := new(big.Rat).SetFloat64(domain.Lo[0])
	hi := new(big.Rat).SetFloat64(domain.Hi[0])
	if lo == nil || hi == nil {
		return nil, fmt.Errorf("itree: non-finite domain bounds")
	}
	return &Space1D{domain: domain, lo: lo, hi: hi}, nil
}

// Dim implements Space.
func (s *Space1D) Dim() int { return 1 }

// Root implements Space: the whole domain interval, closed on both ends.
func (s *Space1D) Root() Region {
	return Interval1D{Lo: s.lo, Hi: s.hi}
}

// Breakpoint1D returns the exact solution of C[0]*x + B = 0 as a rational,
// or ok=false when the hyperplane is degenerate (parallel functions).
func Breakpoint1D(h geometry.Hyperplane) (*big.Rat, bool) {
	if len(h.C) != 1 || h.C[0] == 0 {
		return nil, false
	}
	c := new(big.Rat).SetFloat64(h.C[0])
	b := new(big.Rat).SetFloat64(h.B)
	if c == nil || b == nil {
		return nil, false
	}
	// x = -B/C.
	t := new(big.Rat).Quo(b.Neg(b), c)
	return t, true
}

// Partition implements Space. The hyperplane c*x + b splits the interval
// iff its breakpoint t = -b/c lies strictly inside. "Above" is the side
// where c*x + b >= 0: x >= t when c > 0, x <= t when c < 0.
func (s *Space1D) Partition(r Region, h geometry.Hyperplane) (Region, Region, bool) {
	iv := r.(Interval1D)
	t, ok := Breakpoint1D(h)
	if !ok {
		return nil, nil, false
	}
	if t.Cmp(iv.Lo) <= 0 || t.Cmp(iv.Hi) >= 0 {
		return nil, nil, false
	}
	// Interval [lo, t) or (lo, t] etc: above gets the closed endpoint at t.
	if h.C[0] > 0 {
		above := Interval1D{Lo: t, Hi: iv.Hi, LoStrict: false, HiStrict: iv.HiStrict}
		below := Interval1D{Lo: iv.Lo, Hi: t, LoStrict: iv.LoStrict, HiStrict: true}
		return above, below, true
	}
	above := Interval1D{Lo: iv.Lo, Hi: t, LoStrict: iv.LoStrict, HiStrict: false}
	below := Interval1D{Lo: t, Hi: iv.Hi, LoStrict: true, HiStrict: iv.HiStrict}
	return above, below, true
}

// Witness implements Space: the interval midpoint as a float64 point.
func (s *Space1D) Witness(r Region) geometry.Point {
	m := s.WitnessRat(r)
	f, _ := m.Float64()
	return geometry.Point{f}
}

// WitnessRat returns the exact rational midpoint of the interval, for
// callers that sort record functions with exact arithmetic.
func (s *Space1D) WitnessRat(r Region) *big.Rat {
	iv := r.(Interval1D)
	m := new(big.Rat).Add(iv.Lo, iv.Hi)
	return m.Quo(m, big.NewRat(2, 1))
}

// Halfspaces implements Space: the minimal two-constraint description
// x >= lo (or > lo) and x <= hi (or < hi), expressed as halfspaces so the
// multi-signature verification object stays small.
func (s *Space1D) Halfspaces(r Region) []geometry.Halfspace {
	iv := r.(Interval1D)
	lo, _ := iv.Lo.Float64()
	hi, _ := iv.Hi.Float64()
	return []geometry.Halfspace{
		{H: geometry.Hyperplane{C: []float64{1}, B: -lo}, Strict: iv.LoStrict},
		{H: geometry.Hyperplane{C: []float64{-1}, B: hi}, Strict: iv.HiStrict},
	}
}

// Contains implements Space with an exact rational comparison (x converts
// to big.Rat losslessly).
func (s *Space1D) Contains(r Region, x geometry.Point) bool {
	if len(x) != 1 {
		return false
	}
	iv := r.(Interval1D)
	xr := new(big.Rat).SetFloat64(x[0])
	if xr == nil {
		return false
	}
	cl := xr.Cmp(iv.Lo)
	ch := xr.Cmp(iv.Hi)
	if cl < 0 || ch > 0 {
		return false
	}
	if cl == 0 && iv.LoStrict {
		return false
	}
	if ch == 0 && iv.HiStrict {
		return false
	}
	return true
}

// SpaceND is the LP-backed polytope space for ranking functions of two or
// more variables. A region is the owner's domain box intersected with the
// halfspaces accumulated along an I-tree path; deciding whether an
// intersection hyperplane splits a region reduces to maximizing and
// minimizing the hyperplane's affine form over the region.
type SpaceND struct {
	domain geometry.Box
	// sepTol is the strict-separation tolerance: a hyperplane only counts
	// as splitting a region if the region extends at least sepTol on both
	// sides. This suppresses degenerate sliver subdomains created by
	// float roundoff, which would otherwise have no reliably computable
	// interior witness.
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

// constraints materializes box + region halfspaces as A x <= b rows.
// A halfspace C·X + B >= 0 becomes -C·X <= B.
func (s *SpaceND) constraints(r RegionND) ([][]float64, []float64) {
	a := make([][]float64, 0, len(s.boxRows)+len(r.HSS))
	b := make([]float64, 0, len(s.boxRhs)+len(r.HSS))
	a = append(a, s.boxRows...)
	b = append(b, s.boxRhs...)
	for _, hs := range r.HSS {
		a = append(a, linalg.Scale(-1, hs.H.C))
		b = append(b, hs.H.B)
	}
	return a, b
}

// Partition implements Space. The hyperplane splits the region iff the
// affine form attains values above +sepTol and below -sepTol on it.
func (s *SpaceND) Partition(r Region, h geometry.Hyperplane) (Region, Region, bool) {
	reg := r.(RegionND)
	if h.IsDegenerate() || len(h.C) != s.Dim() {
		return nil, nil, false
	}
	a, b := s.constraints(reg)

	maxRes, err := lp.Maximize(h.C, a, b)
	if err != nil || maxRes.Status != lp.Optimal || maxRes.Objective+h.B <= s.sepTol {
		return nil, nil, false
	}
	minRes, err := lp.Minimize(h.C, a, b)
	if err != nil || minRes.Status != lp.Optimal || minRes.Objective+h.B >= -s.sepTol {
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
// maximize t subject to C·X + B >= t*||C|| for every constraint. When the
// region has positive volume the optimum has t > 0 and X is strictly
// interior.
func (s *SpaceND) Witness(r Region) geometry.Point {
	reg := r.(RegionND)
	d := s.Dim()
	// Variables: X (d entries) then t.
	var a [][]float64
	var b []float64
	addRow := func(c []float64, bias float64) {
		// Constraint C·X + bias >= t*||C||  =>  -C·X + ||C||*t <= bias.
		row := make([]float64, d+1)
		for i, v := range c {
			row[i] = -v
		}
		row[d] = linalg.Norm2(c)
		a = append(a, row)
		b = append(b, bias)
	}
	for i := 0; i < d; i++ {
		lo := make([]float64, d)
		lo[i] = 1
		addRow(lo, -s.domain.Lo[i])
		hi := make([]float64, d)
		hi[i] = -1
		addRow(hi, s.domain.Hi[i])
	}
	for _, hs := range reg.HSS {
		addRow(hs.H.C, hs.H.B)
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
