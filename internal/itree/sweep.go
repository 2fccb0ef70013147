package itree

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"aqverify/internal/funcs"
)

// Sweep walks the arrangement's gaps left to right and hands visit each
// gap's sorted order: perm[pos] is the index into fs of the function at
// sorted position pos, ascending at the gap's witness (Space1D.WitnessAt),
// ties by index. Gap 0's order is one exact sort (funcs.SortAtRat). Every
// later gap's is its left neighbour's with each contiguous run of the
// boundary group's members re-sorted at the gap's witness by adjacent
// transpositions; swaps lists their positions in the order applied (nil
// for gap 0), so visit can replay them. Every crossing pair is one
// transposition. perm and swaps are reused between calls: visit must
// not keep or modify them.
//
// The functions crossing at a boundary tie exactly there, so their
// positions form contiguous runs, and every pair that reorders between
// adjacent witnesses crosses at the boundary between them. Two checks
// hold that assumption: after each boundary every member pair must be
// ordered as the next gap demands, and the order leaving the last gap
// must equal the exact sort at its witness. A failed check returns an
// error instead of a wrong order. A done ctx stops the walk between
// gaps with ctx.Err().
func (a *Arrangement1D) Sweep(ctx context.Context, fs []funcs.Linear, visit func(g int, perm, swaps []int) error) error {
	var perm, inv, positions, swaps []int
	var at funcs.At
	for g := 0; g <= len(a.Groups); g++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		at = a.space.WitnessAt(a.Gap(g))
		if g == 0 {
			perm = funcs.SortAtRat(fs, at)
			inv = funcs.InversePerm(perm)
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
				swaps = resortRun(fs, perm, inv, positions[i], positions[j], at, swaps)
				i = j + 1
			}
			for _, in := range members {
				if (inv[in.I] < inv[in.J]) != (rankCmp(fs[in.I], fs[in.J], at) < 0) {
					return fmt.Errorf("itree: sweep: boundary %d: pair (%d,%d) not ordered for the next gap", g-1, in.I, in.J)
				}
			}
		}
		if err := visit(g, perm, swaps); err != nil {
			return err
		}
	}
	if len(a.Groups) > 0 && !slices.Equal(perm, funcs.SortAtRat(fs, at)) {
		return fmt.Errorf("itree: sweep: the order leaving gap %d disagrees with the exact sort at its witness", len(a.Groups))
	}
	return nil
}

// rankCmp orders f and g at the exact point at: by score (funcs.CmpAt),
// ties by function index.
func rankCmp(f, g funcs.Linear, at funcs.At) int {
	if c := funcs.CmpAt(f, g, at); c != 0 {
		return c
	}
	return cmp.Compare(f.Index, g.Index)
}

// resortRun bubble-sorts the block perm[lo..hi] into the exact order at
// at, appending each adjacent transposition to swaps.
func resortRun(fs []funcs.Linear, perm, inv []int, lo, hi int, at funcs.At, swaps []int) []int {
	for moved := true; moved; {
		moved = false
		for p := lo; p < hi; p++ {
			if rankCmp(fs[perm[p]], fs[perm[p+1]], at) > 0 {
				perm[p], perm[p+1] = perm[p+1], perm[p]
				inv[perm[p]], inv[perm[p+1]] = p, p+1
				swaps = append(swaps, p)
				moved = true
			}
		}
	}
	return swaps
}
