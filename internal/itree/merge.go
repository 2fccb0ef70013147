package itree

import (
	"fmt"
	"sort"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
)

// BoundaryClass describes how one boundary of a merged arrangement
// relates to the arrangement it was merged from — the alignment the
// incremental sweep consumes.
type BoundaryClass struct {
	// Old is the boundary's index in the previous arrangement, or -1
	// for a brand-new breakpoint.
	Old int
	// Dirty reports whether the boundary's crossing-pair set changed:
	// it gained dirty pairs, lost pairs to the mutation, or is brand
	// new. A clean boundary's swaps can be replayed from the previous
	// sweep plan; a dirty one must be re-sorted.
	Dirty bool
}

// DirtyPairs1D enumerates, in (i, j)-lexicographic order, the pairs of
// the new function list that involve at least one dirty function and
// whose breakpoint lies strictly inside the domain, by Pairs1DCtx's exact
// rule (inside). This is the O(b·n) localized replacement for the full
// enumeration: only pairs touching changed records are visited.
func DirtyPairs1D(fs []funcs.Linear, dirty []bool, domain geometry.Box) ([]Intersection, error) {
	if domain.Dim() != 1 {
		return nil, fmt.Errorf("itree: 1-D pair enumeration needs a 1-D domain")
	}
	if len(dirty) != len(fs) {
		return nil, fmt.Errorf("itree: dirty mask has %d entries for %d functions", len(dirty), len(fs))
	}
	lo, hi := domain.Lo[0], domain.Hi[0]
	var out []Intersection
	scratch := make([]float64, 1)
	emit := func(i, j int) {
		if in := crossing(fs, i, j, scratch); inside(in.H, lo, hi) {
			in.H.C = []float64{in.H.C[0]}
			out = append(out, in)
		}
	}
	for i := range fs {
		if dirty[i] {
			for j := i + 1; j < len(fs); j++ {
				emit(i, j)
			}
		} else {
			for j := i + 1; j < len(fs); j++ {
				if dirty[j] {
					emit(i, j)
				}
			}
		}
	}
	return out, nil
}

// MergeArrangement1D produces the arrangement of the mutated function
// set from the previous arrangement: surviving members — pairs whose
// endpoints both map through cleanRemap — keep their breakpoints,
// hyperplanes and canonical priorities with only their indexes
// rewritten, and the freshly enumerated dirty pairs are grouped and
// merged in. It returns the merged arrangement plus one BoundaryClass
// per merged boundary, aligning it against the previous arrangement
// for the incremental sweep.
//
// cleanRemap maps an old function index to its new index, or -1 when
// the function was deleted or updated (an updated function's old pairs
// are dead; its new pairs arrive through dirtyInters). The remap must
// be monotone over the surviving indexes — the mutation plane's
// delete-compact-then-append rule — so that rewriting preserves the
// canonical (I, J) tie-break order among survivors.
func MergeArrangement1D(space *Space1D, prev *Arrangement1D, cleanRemap []int, dirtyInters []Intersection) (*Arrangement1D, []BoundaryClass) {
	dirtyArr := NewArrangement1D(space, dirtyInters, prev.Seed)
	merged := &Arrangement1D{Seed: prev.Seed}
	var classes []BoundaryClass
	pi, di := 0, 0
	for pi < len(prev.Groups) || di < len(dirtyArr.Groups) {
		var cmp int
		switch {
		case pi == len(prev.Groups):
			cmp = +1
		case di == len(dirtyArr.Groups):
			cmp = -1
		default:
			cmp = prev.Groups[pi].T.Cmp(dirtyArr.Groups[di].T)
		}
		switch {
		case cmp < 0:
			// Previous-only breakpoint: keep its surviving members.
			g, changed := rewriteGroup(prev.Groups[pi], cleanRemap)
			if g != nil {
				merged.Groups = append(merged.Groups, g)
				classes = append(classes, BoundaryClass{Old: pi, Dirty: changed})
			}
			pi++
		case cmp > 0:
			// Brand-new breakpoint.
			merged.Groups = append(merged.Groups, dirtyArr.Groups[di])
			classes = append(classes, BoundaryClass{Old: -1, Dirty: true})
			di++
		default:
			// Shared breakpoint: survivors plus dirty arrivals.
			g, _ := rewriteGroup(prev.Groups[pi], cleanRemap)
			d := dirtyArr.Groups[di]
			if g == nil {
				g = d
			} else {
				g.Members = append(g.Members, d.Members...)
				g.prios = append(g.prios, d.prios...)
				sortGroup(g)
			}
			merged.Groups = append(merged.Groups, g)
			classes = append(classes, BoundaryClass{Old: pi, Dirty: true})
			pi, di = pi+1, di+1
		}
	}
	return merged, classes
}

// rewriteGroup filters a group to its surviving members with indexes
// rewritten, returning nil when none survive. changed reports whether
// any member was dropped. The canonical order among survivors is
// preserved: priorities and hyperplane bytes are content-only, and the
// monotone remap preserves the (I, J) tie-break.
func rewriteGroup(g *Group1D, cleanRemap []int) (out *Group1D, changed bool) {
	keep := 0
	for _, m := range g.Members {
		if cleanRemap[m.I] >= 0 && cleanRemap[m.J] >= 0 {
			keep++
		}
	}
	if keep == 0 {
		return nil, true
	}
	out = &Group1D{T: g.T, Members: make([]Intersection, 0, keep), prios: make([]uint64, 0, keep)}
	for i, m := range g.Members {
		ni, nj := cleanRemap[m.I], cleanRemap[m.J]
		if ni < 0 || nj < 0 {
			continue
		}
		m.I, m.J = ni, nj
		out.Members = append(out.Members, m)
		out.prios = append(out.prios, g.prios[i])
	}
	return out, keep != len(g.Members)
}

// sortGroup restores a group's canonical member order after a merge.
func sortGroup(g *Group1D) {
	idx := make([]int, len(g.Members))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return canonLess(g.prios[idx[a]], g.Members[idx[a]], g.prios[idx[b]], g.Members[idx[b]])
	})
	ms := make([]Intersection, len(idx))
	ps := make([]uint64, len(idx))
	for i, k := range idx {
		ms[i] = g.Members[k]
		ps[i] = g.prios[k]
	}
	g.Members, g.prios = ms, ps
}
