package itree

import (
	"context"
	"fmt"
	"slices"

	"aqverify/internal/funcs"
)

// Sweep walks the arrangement's gaps left to right and hands visit each
// gap's sorted order: perm[pos] is the index into fs of the function at
// sorted position pos, in SortAtExact's order at the gap's witness
// (Interval1D.Witness) — the order at every float of the gap. Gap 0's
// order is one exact sort (SortAtExact). Every
// later gap's is its left neighbour's with each contiguous run of the
// boundary group's members re-sorted at the gap's witness by adjacent
// transpositions; swaps lists their positions in the order applied (nil
// for gap 0), so visit can replay them. Every crossing pair is one
// transposition. perm and swaps are reused between calls: visit must
// not keep or modify them.
//
// Every pair that reorders between adjacent witnesses has its threshold
// at the boundary between them, and a function ranked between two that
// swap there must swap with one of them, so the boundary's members form
// contiguous runs and no other function moves. Two checks
// hold that assumption: after each boundary every member pair must be
// ordered as the next gap demands, and the order leaving the last gap
// must equal the exact sort at its witness. A failed check returns an
// error instead of a wrong order. A done ctx stops the walk between
// gaps with ctx.Err().
func (a *Arrangement1D) Sweep(ctx context.Context, fs []funcs.Linear, visit func(g int, perm, swaps []int) error) error {
	var perm, inv, positions, swaps []int
	var x float64
	for g := 0; g <= len(a.Groups); g++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		x = a.Gap(g).Witness()
		if g == 0 {
			perm = SortAtExact(fs, x)
			inv = InversePerm(perm)
		} else {
			members := a.Groups[g-1].Members
			positions = positions[:0]
			for _, in := range members {
				positions = append(positions, inv[in.I], inv[in.J])
			}
			slices.Sort(positions)
			positions = slices.Compact(positions)
			swaps = swaps[:0]
			for i := 0; i < len(positions); {
				j := i
				for j+1 < len(positions) && positions[j+1] == positions[j]+1 {
					j++
				}
				swaps = resortRun(fs, perm, inv, positions[i], positions[j], x, swaps)
				i = j + 1
			}
			for _, in := range members {
				if (inv[in.I] < inv[in.J]) != (rank(fs, in.I, in.J, x) < 0) {
					return fmt.Errorf("itree: sweep: boundary %d: pair (%d,%d) not ordered for the next gap", g-1, in.I, in.J)
				}
			}
		}
		if err := visit(g, perm, swaps); err != nil {
			return err
		}
	}
	if len(a.Groups) > 0 && !slices.Equal(perm, SortAtExact(fs, x)) {
		return fmt.Errorf("itree: sweep: the order leaving gap %d disagrees with the exact sort at its witness", len(a.Groups))
	}
	return nil
}

// resortRun bubble-sorts the block perm[lo..hi] into the exact order at
// x, appending each adjacent transposition to swaps.
func resortRun(fs []funcs.Linear, perm, inv []int, lo, hi int, x float64, swaps []int) []int {
	for moved := true; moved; {
		moved = false
		for p := lo; p < hi; p++ {
			if rank(fs, perm[p], perm[p+1], x) > 0 {
				perm[p], perm[p+1] = perm[p+1], perm[p]
				inv[perm[p]], inv[perm[p+1]] = p, p+1
				swaps = append(swaps, p)
				moved = true
			}
		}
	}
	return swaps
}
