package itree

import (
	"context"
	"fmt"
	"math/big"
	"sort"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/pool"
)

// PairsPartition1D enumerates the pairwise intersections of univariate
// linear functions once and partitions them across a contiguous split of
// the domain: cuts lists the K-1 interior cut points (strictly ascending,
// strictly inside the domain) separating K sub-boxes, and bucket k of the
// result holds exactly the intersections owned by sub-box k.
//
// Ownership is half-open: a breakpoint t belongs to sub-box k iff
// cuts[k-1] <= t < cuts[k] (with the domain edges closing the first and
// last bucket), so an intersection exactly on a cut lands in exactly one
// bucket — the sub-box on the cut's right, matching shard.Plan.Route —
// and every in-domain intersection lands in exactly one bucket: no drop,
// no double count. Breakpoints within float rounding distance of a cut
// are placed by the exact rational solution of the crossing, so ownership
// never disagrees with the exact-rational splitting checks used during
// tree construction; pairs sharing one concurrent crossing point always
// land in the same bucket, keeping each sub-box's sweep groups complete.
//
// The outer domain edges keep Pairs1D's widened-margin prefilter: a
// breakpoint within margin outside the domain is still enumerated (into
// the nearest bucket) and left for the exact insertion checks to prune.
func PairsPartition1D(fs []funcs.Linear, domain geometry.Box, cuts []float64) ([][]Intersection, error) {
	return PairsPartition1DCtx(context.Background(), fs, domain, cuts, 1)
}

// PairsPartition1DCtx is PairsPartition1D with the O(n²) row scan sharded
// across a worker pool and cooperative cancellation between row chunks.
// Each worker enumerates a contiguous range of rows i (all pairs (i, j),
// j > i) into private buckets; the per-chunk buckets are concatenated in
// ascending row order, so the output — bucket contents and the order
// within each bucket — is byte-identical to the serial scan for every
// worker count. workers <= 0 means one per CPU.
func PairsPartition1DCtx(ctx context.Context, fs []funcs.Linear, domain geometry.Box, cuts []float64, workers int) ([][]Intersection, error) {
	if domain.Dim() != 1 {
		return nil, fmt.Errorf("itree: 1-D pair enumeration needs a 1-D domain")
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
	for i := range fs {
		if fs[i].Dim() != 1 {
			return nil, fmt.Errorf("itree: function %d is not univariate", i)
		}
	}
	n := len(fs)
	w := pool.Workers(workers, n)
	// Row i owns n-1-i pairs, so fixed row ranges straggle; oversplitting
	// the rows and letting the pool load-balance the chunks evens it out.
	// The chunk count never changes the output: chunks are concatenated in
	// ascending row order regardless of which worker ran them.
	chunks := w * 8
	if chunks > n {
		chunks = n
	}
	if chunks < 1 {
		chunks = 1
	}
	chunkOut := make([][][]Intersection, chunks)
	err := pool.RunCtx(ctx, chunks, w, func(_, c int) {
		chunkOut[c] = pairsRows1D(fs, c*n/chunks, (c+1)*n/chunks, lo, hi, cuts)
	})
	if err != nil {
		return nil, err
	}
	out := make([][]Intersection, len(cuts)+1)
	for k := range out {
		total := 0
		for _, co := range chunkOut {
			total += len(co[k])
		}
		out[k] = make([]Intersection, 0, total)
		for _, co := range chunkOut {
			out[k] = append(out[k], co[k]...)
		}
	}
	return out, nil
}

// cutBuckets is the shared bucket-decision state of the partitioned
// scan and PartitionInters1D, so the ownership rule — float search with
// exact-rational re-decision near cuts — lives in one place.
type cutBuckets struct {
	cuts   []float64
	margin float64
	// exactCuts materializes lazily: only breakpoints within margin of a
	// cut pay for rational arithmetic.
	exactCuts []*big.Rat
}

// bucketOf decides which sub-box owns the intersection with float
// breakpoint t; ok is false when the hyperplane is degenerate after
// float widening (cannot split anything).
func (cb *cutBuckets) bucketOf(in Intersection, t float64) (int, bool) {
	// Bucket k is the count of cuts at or below t.
	k := sort.SearchFloat64s(cb.cuts, t)
	if k < len(cb.cuts) && cb.cuts[k] == t {
		k++
	}
	// Near a cut the float solution can sit on the wrong side of it;
	// re-decide exactly there so ownership agrees with the
	// exact-rational Partition used while building each sub-tree.
	if nearCut := (k > 0 && t-cb.cuts[k-1] <= cb.margin) ||
		(k < len(cb.cuts) && cb.cuts[k]-t <= cb.margin); nearCut {
		if cb.exactCuts == nil {
			cb.exactCuts = make([]*big.Rat, len(cb.cuts))
			for m, c := range cb.cuts {
				cb.exactCuts[m] = new(big.Rat).SetFloat64(c)
			}
		}
		bp, ok := Breakpoint1D(in.H)
		if !ok {
			return 0, false // degenerate; cannot split
		}
		k = sort.Search(len(cb.cuts), func(m int) bool {
			return cb.exactCuts[m].Cmp(bp) > 0
		})
	}
	return k, true
}

// pairsRows1D enumerates the pairs (i, j) for i in [rlo, rhi), j > i,
// bucketing each in-domain (or within-margin) breakpoint by the half-open
// ownership rule. It is the per-chunk body of the partitioned scan; the
// enumeration order within the chunk is (i, j) lexicographic, matching
// the serial scan.
func pairsRows1D(fs []funcs.Linear, rlo, rhi int, lo, hi float64, cuts []float64) [][]Intersection {
	cb := cutBuckets{cuts: cuts, margin: (hi - lo) * 1e-9}
	out := make([][]Intersection, len(cuts)+1)
	for i := rlo; i < rhi; i++ {
		ci, bi := fs[i].Coef[0], fs[i].Bias
		for j := i + 1; j < len(fs); j++ {
			dc := ci - fs[j].Coef[0]
			if dc == 0 {
				continue // parallel
			}
			t := (fs[j].Bias - bi) / dc
			if t < lo-cb.margin || t > hi+cb.margin {
				continue
			}
			in := Intersection{
				I: i, J: j,
				H: geometry.Hyperplane{C: []float64{dc}, B: bi - fs[j].Bias},
			}
			if k, ok := cb.bucketOf(in, t); ok {
				out[k] = append(out[k], in)
			}
		}
	}
	return out
}

// PartitionInters1D partitions an already enumerated intersection list
// (as produced by Pairs1D over the same domain) across the cuts, under
// exactly the ownership rule PairsPartition1D applies during a fused
// enumerate-and-bucket scan — the buckets are identical, order included.
// It is the linear re-bucketing pass that lets one global enumeration be
// shared between a cut planner and the shard build instead of paying the
// O(n²) scan twice.
func PartitionInters1D(inters []Intersection, domain geometry.Box, cuts []float64) ([][]Intersection, error) {
	if domain.Dim() != 1 {
		return nil, fmt.Errorf("itree: 1-D pair partitioning needs a 1-D domain")
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
	cb := cutBuckets{cuts: cuts, margin: (hi - lo) * 1e-9}
	out := make([][]Intersection, len(cuts)+1)
	for _, in := range inters {
		// The hyperplane is dc·x + (b_i − b_j); its root is the float
		// breakpoint the fused scan computed ((b_j − b_i)/dc — IEEE
		// negation is exact, so the value is bit-identical).
		t := -in.H.B / in.H.C[0]
		if k, ok := cb.bucketOf(in, t); ok {
			out[k] = append(out[k], in)
		}
	}
	return out, nil
}
