// Package shard splits one logical outsourced database across several
// independently built and signed IFMH-trees, partitioned by domain: a
// Plan cuts the owner-specified domain into K contiguous sub-boxes along
// one axis, a Set holds one core.Tree per sub-box, and Plan.RouteQuery
// maps every query's function input to the one shard whose sub-box owns
// it (Plan.Group does a batch's worth). The package builds nothing —
// build.Outsource constructs a Set, one core.BuildCtx per box — and
// answers nothing: backend.Sharded serves a Set, backend.Fanout K remote
// shards, both by these two routines.
//
// Sharding is transparent to verification. Every shard holds the full
// record table — the split is over the query domain, not the rows — so a
// query answered by its owning shard returns exactly the window the
// single-tree build would have returned, under the same published
// PublicParams (same signer, template and mode). What sharding buys is
// construction and serving scale: each shard sees only the intersections
// whose boundaries fall in its sub-box, so its subdomain count — the S
// that drives build time, structure size and multi-signature count —
// shrinks by roughly a factor of K, and the K builds run concurrently,
// potentially on K different machines (the outsource-to-many-servers
// posture of the source paper).
//
// Routing is deterministic on boundaries: a function input exactly on a
// cut belongs to the sub-box on the cut's right. A univariate shard's
// tree partitions the floats it is routed: its sub-box, minus the upper
// cut unless it is the last shard (core.Params.OpenHi), with the
// thresholds itree.Pairs1DCtx finds there. A pair whose order changes
// exactly at a cut needs no boundary in either neighbour, and every
// query routed to a shard falls in one of its subdomains.
package shard

import (
	"fmt"
	"sort"

	"aqverify/internal/geometry"
	"aqverify/internal/query"
)

// Plan is a contiguous split of the owner's domain into K sub-boxes
// along one axis. The zero value is not valid; use NewPlan.
type Plan struct {
	// Domain is the full owner-specified domain being split.
	Domain geometry.Box
	// Axis is the dimension the cuts are perpendicular to.
	Axis int
	// Cuts lists the K-1 interior cut coordinates, strictly ascending.
	Cuts []float64
	// Boxes lists the K sub-boxes left to right along Axis. Adjacent
	// boxes share their cut coordinate (boxes are closed); Route breaks
	// the tie to the right.
	Boxes []geometry.Box
}

// NewPlan splits the domain into k evenly sized sub-boxes along the
// given axis. k = 1 yields the trivial single-shard plan.
func NewPlan(domain geometry.Box, axis, k int) (Plan, error) {
	if axis < 0 || axis >= domain.Dim() {
		return Plan{}, fmt.Errorf("shard: axis %d out of range for a %d-D domain", axis, domain.Dim())
	}
	if k < 1 {
		return Plan{}, fmt.Errorf("shard: need at least one shard, got %d", k)
	}
	lo, hi := domain.Lo[axis], domain.Hi[axis]
	cuts := make([]float64, 0, k-1)
	for i := 1; i < k; i++ {
		c := lo + (hi-lo)*float64(i)/float64(k)
		if len(cuts) > 0 && c <= cuts[len(cuts)-1] || c <= lo || c >= hi {
			return Plan{}, fmt.Errorf("shard: domain axis %d too narrow for %d shards", axis, k)
		}
		cuts = append(cuts, c)
	}
	return NewPlanCuts(domain, axis, cuts)
}

// NewPlanCuts builds a plan from explicit interior cut coordinates,
// which must be strictly ascending and strictly inside the domain along
// the axis. An empty cut list yields the single-shard plan.
func NewPlanCuts(domain geometry.Box, axis int, cuts []float64) (Plan, error) {
	if axis < 0 || axis >= domain.Dim() {
		return Plan{}, fmt.Errorf("shard: axis %d out of range for a %d-D domain", axis, domain.Dim())
	}
	lo, hi := domain.Lo[axis], domain.Hi[axis]
	for i, c := range cuts {
		if c <= lo || c >= hi {
			return Plan{}, fmt.Errorf("shard: cut %d (%v) outside the open domain (%v,%v)", i, c, lo, hi)
		}
		if i > 0 && c <= cuts[i-1] {
			return Plan{}, fmt.Errorf("shard: cuts not strictly ascending at %d", i)
		}
	}
	p := Plan{
		Domain: domain,
		Axis:   axis,
		Cuts:   append([]float64(nil), cuts...),
		Boxes:  make([]geometry.Box, 0, len(cuts)+1),
	}
	edges := append(append([]float64{lo}, cuts...), hi)
	for i := 0; i+1 < len(edges); i++ {
		blo := append([]float64(nil), domain.Lo...)
		bhi := append([]float64(nil), domain.Hi...)
		blo[axis], bhi[axis] = edges[i], edges[i+1]
		box, err := geometry.NewBox(blo, bhi)
		if err != nil {
			return Plan{}, fmt.Errorf("shard: sub-box %d: %w", i, err)
		}
		p.Boxes = append(p.Boxes, box)
	}
	return p, nil
}

// K returns the shard count.
func (p Plan) K() int { return len(p.Boxes) }

// PlanFromBoxes reconstructs the plan from per-shard sub-boxes, in shard
// order (left to right along the cut axis) — the inverse of NewPlanCuts'
// Boxes field. A routing front-end uses it to recover the plan from what
// the shard servers advertise: each vqserve publishes its serving
// domain, and the front-end needs the global plan to route. The boxes
// must form a contiguous split of one box along exactly one axis and be
// identical along every other; a single box yields the trivial plan.
func PlanFromBoxes(boxes []geometry.Box) (Plan, error) {
	if len(boxes) == 0 {
		return Plan{}, fmt.Errorf("shard: no sub-boxes")
	}
	dim := boxes[0].Dim()
	for i, b := range boxes {
		if b.Dim() != dim {
			return Plan{}, fmt.Errorf("shard: sub-box %d is %d-D, sub-box 0 is %d-D", i, b.Dim(), dim)
		}
	}
	if len(boxes) == 1 {
		return NewPlanCuts(boxes[0], 0, nil)
	}
	axis := -1
	for a := 0; a < dim; a++ {
		if contiguousAlong(boxes, a) {
			if axis >= 0 {
				return Plan{}, fmt.Errorf("shard: sub-boxes split along both axis %d and %d", axis, a)
			}
			axis = a
		}
	}
	if axis < 0 {
		return Plan{}, fmt.Errorf("shard: sub-boxes do not form a contiguous one-axis split")
	}
	cuts := make([]float64, 0, len(boxes)-1)
	for _, b := range boxes[:len(boxes)-1] {
		cuts = append(cuts, b.Hi[axis])
	}
	lo := append([]float64(nil), boxes[0].Lo...)
	hi := append([]float64(nil), boxes[0].Hi...)
	hi[axis] = boxes[len(boxes)-1].Hi[axis]
	domain, err := geometry.NewBox(lo, hi)
	if err != nil {
		return Plan{}, fmt.Errorf("shard: joining sub-boxes: %w", err)
	}
	return NewPlanCuts(domain, axis, cuts)
}

// contiguousAlong reports whether the boxes tile one interval along axis
// a — each box starting where its left neighbor ends — while agreeing
// exactly on every other axis.
func contiguousAlong(boxes []geometry.Box, a int) bool {
	for i, b := range boxes {
		for d := 0; d < b.Dim(); d++ {
			if d == a {
				continue
			}
			if b.Lo[d] != boxes[0].Lo[d] || b.Hi[d] != boxes[0].Hi[d] {
				return false
			}
		}
		if i > 0 && b.Lo[a] != boxes[i-1].Hi[a] {
			return false
		}
	}
	return true
}

// Route returns the index of the shard owning the function input x. A
// point exactly on a cut routes deterministically to the shard on the
// cut's right, whose closed sub-box contains it. Points outside the
// domain error.
func (p Plan) Route(x geometry.Point) (int, error) {
	if !p.Domain.Contains(x) {
		return 0, fmt.Errorf("shard: function input %v outside the owner-specified domain", x)
	}
	v := x[p.Axis]
	// Owner = count of cuts at or below v: on-cut points go right.
	k := sort.SearchFloat64s(p.Cuts, v)
	if k < len(p.Cuts) && p.Cuts[k] == v {
		k++
	}
	return k, nil
}

// RouteQuery returns the shard owning q: the query is checked against
// the domain's dimension (input validation — q may come off the wire),
// then its function input routes as Route describes.
func (p Plan) RouteQuery(q query.Query) (int, error) {
	if err := q.Validate(p.Domain.Dim()); err != nil {
		return 0, err
	}
	return p.Route(q.X)
}

// Group partitions a batch by owning shard: groups[k] lists the batch
// indexes shard k owns, in arrival order, and errs[i] is set for every
// unroutable qs[i] (which appears in no group). It is the one routine
// every batch dispatcher — backend.Sharded, the fanout front-end —
// splits a batch with, so one shard's queries stay contiguous and all
// surfaces agree on ownership.
func (p Plan) Group(qs []query.Query) (groups [][]int, errs []error) {
	groups = make([][]int, p.K())
	errs = make([]error, len(qs))
	for i, q := range qs {
		id, err := p.RouteQuery(q)
		if err != nil {
			errs[i] = err
			continue
		}
		groups[id] = append(groups[id], i)
	}
	return groups, errs
}
