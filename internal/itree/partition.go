package itree

import (
	"fmt"
	"math/big"
	"sort"

	"aqverify/internal/geometry"
)

// PartitionInters1D splits an intersection list enumerated by Pairs1DCtx
// over the same domain across a contiguous split of it: cuts lists the
// K-1 interior cut points (strictly ascending, strictly inside the
// domain) separating K sub-boxes, and bucket k of the result holds, in
// list order, exactly the intersections sub-box k owns. It is the one
// bucketing rule of a sharded 1-D build: one global enumeration, shared
// with a cut planner, becomes the K shards' lists in one linear pass.
//
// Ownership is half-open: a breakpoint t belongs to sub-box k iff
// cuts[k-1] <= t < cuts[k] (with the domain edges closing the first and
// last bucket), so an intersection exactly on a cut lands in exactly one
// bucket — the sub-box on the cut's right, matching shard.Plan.Route —
// and every in-domain intersection lands in exactly one bucket: no drop,
// no double count. Pairs1DCtx lists only in-domain pairs; an entry of a
// caller's list outside the domain goes to the nearest bucket, left for
// the exact insertion checks to prune.
//
// The float breakpoint decides against every cut it differs from: it is
// the IEEE quotient −B/C, the exact breakpoint correctly rounded, and
// rounding is monotone. One that equals a cut is re-decided by the exact
// rational solution of the crossing, so ownership never disagrees with
// the exact-rational splitting checks used while building each sub-tree,
// and pairs sharing one concurrent crossing point always land in the same
// bucket, keeping each sub-box's sweep groups complete. A pair with no
// finite breakpoint there is dropped.
func PartitionInters1D(inters []Intersection, domain geometry.Box, cuts []float64) ([][]Intersection, error) {
	if domain.Dim() != 1 {
		return nil, fmt.Errorf("itree: 1-D partition needs a 1-D domain")
	}
	lo, hi := domain.Lo[0], domain.Hi[0]
	for i, c := range cuts {
		if c <= lo || c >= hi {
			return nil, fmt.Errorf("itree: cut %d (%v) outside the open domain (%v,%v)", i, c, lo, hi)
		}
		if i > 0 && c <= cuts[i-1] {
			return nil, fmt.Errorf("itree: cuts not strictly ascending at %d", i)
		}
	}
	out := make([][]Intersection, len(cuts)+1)
	for _, in := range inters {
		// The hyperplane is dc·x + (b_i − b_j); −B/C is its root
		// correctly rounded, the float inside decides on.
		t := -in.H.B / in.H.C[0]
		k := sort.SearchFloat64s(cuts, t) // the count of cuts below t
		if k < len(cuts) && cuts[k] == t {
			bp, ok := Breakpoint1D(in.H)
			if !ok {
				continue
			}
			if bp.Cmp(new(big.Rat).SetFloat64(t)) >= 0 {
				k++
			}
		}
		out[k] = append(out[k], in)
	}
	return out, nil
}
