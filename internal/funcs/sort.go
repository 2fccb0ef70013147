package funcs

import "slices"

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
