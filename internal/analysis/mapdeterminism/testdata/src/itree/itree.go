// Package itree is mapdeterminism's clean fixture: an in-scope
// build-plane package written idiomatically — sorted-key iteration,
// slice ranges — that must produce zero findings.
package itree

import "sort"

// Plan stands in for a deterministic output structure.
type Plan struct{ order []int }

// FromGroups builds the plan from a map deterministically.
func FromGroups(groups map[int][]int) Plan {
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var p Plan
	for _, k := range keys {
		p.order = append(p.order, groups[k]...)
	}
	return p
}

// Total ranges a slice only.
func Total(xs []int) (n int) {
	for _, x := range xs {
		n += x
	}
	return n
}
