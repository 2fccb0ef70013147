package itree

import (
	"cmp"
	"slices"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
)

// SortAt returns the permutation of function indices sorted ascending by
// float score at x, ties by index: perm[pos] is the index (into fs) of
// the function at sorted position pos. The n-D owner orders each
// subdomain by it at the subdomain's witness.
func SortAt(fs []funcs.Linear, x geometry.Point) []int {
	scores := make([]float64, len(fs))
	for i, f := range fs {
		scores[i] = f.Eval(x)
	}
	return sortedPerm(len(fs), func(a, b int) int { return cmp.Compare(scores[a], scores[b]) })
}

// SortAtExact is SortAt for univariate functions at the float x in the
// exact order: by exact score (funcs.CmpAt), ties by index — the order
// a 1-D leaf holds at every float in it.
func SortAtExact(fs []funcs.Linear, x float64) []int {
	return sortedPerm(len(fs), func(a, b int) int { return funcs.CmpAt(fs[a], fs[b], x) })
}

// rank compares functions a and b of fs in SortAtExact's order at x.
func rank(fs []funcs.Linear, a, b int, x float64) int {
	if c := funcs.CmpAt(fs[a], fs[b], x); c != 0 {
		return c
	}
	return a - b
}

// sortedPerm returns the permutation of 0..n-1 sorted ascending by cmp,
// ties broken by index so the order is total and deterministic.
func sortedPerm(n int, cmp func(a, b int) int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int {
		if c := cmp(a, b); c != 0 {
			return c
		}
		return a - b
	})
	return perm
}

// InversePerm returns the inverse permutation: for perm[pos] = idx it
// yields inv[idx] = pos.
func InversePerm(perm []int) []int {
	inv := make([]int, len(perm))
	for pos, idx := range perm {
		inv[idx] = pos
	}
	return inv
}
