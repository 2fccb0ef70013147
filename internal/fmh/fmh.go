// Package fmh implements the Function Merkle Hash tree (FMH-tree, paper
// §3.1 step 2): a Merkle tree over one subdomain's sorted function list,
// bracketed by the special f_min and f_max sentinel tokens that make
// completeness provable at the list ends.
//
// Positions come in two coordinate systems. A record position is an index
// into the sorted record list, 0..n-1, with -1 denoting the f_min sentinel
// and n denoting f_max. A tree leaf index shifts that by one: leaf 0 is
// f_min, leaf p+1 is record position p, leaf n+1 is f_max. The sentinel
// leaf digests bind the list length, so a verifier that recomputes the
// root with a sentinel in range has also authenticated n.
//
// The tree is the sorted list, not a digest of one kept elsewhere: every
// record leaf names the record it commits to, so a Reader reads positions
// — each read resuming the last one's descent — and Window a result
// window with its two neighbors. The server answers queries from these
// and never materializes a subdomain's permutation.
//
// Lists are immutable; DeriveSwap produces the next subdomain's list in
// O(log n) new nodes via the persistent Merkle tree underneath. The
// client's counterpart of BoundaryProof is verify.ComputeFMHRoot.
package fmh

import (
	"fmt"
	"math"

	"aqverify/internal/hashing"
	"aqverify/internal/metrics"
	"aqverify/internal/mhtree"
	"aqverify/internal/verify"
)

// List is one subdomain's FMH-tree. N is the record count (excluding
// sentinels).
type List struct {
	N    int
	Tree *mhtree.Node
}

// Build constructs the FMH-tree for a sorted function list: perm[p] is
// the index of the record at sorted position p, and leafDigest must
// return that record's leaf digest, h.Leaf of its record digest. Sentinel
// leaves are added automatically and commit to no record.
func Build(h *hashing.Hasher, perm []int, leafDigest func(rec int) hashing.Digest) (*List, error) {
	n := len(perm)
	if n > math.MaxInt32-2 {
		return nil, fmt.Errorf("fmh: list length %d overflows the 32-bit leaf index", n)
	}
	leaves := make([]hashing.Digest, n+2)
	recs := make([]int32, n+2)
	leaves[0], recs[0] = h.SentinelMin(n), mhtree.NoRecord
	for p, rec := range perm {
		leaves[p+1], recs[p+1] = leafDigest(rec), int32(rec)
	}
	leaves[n+1], recs[n+1] = h.SentinelMax(n), mhtree.NoRecord
	return &List{N: n, Tree: mhtree.Build(h, leaves, recs)}, nil
}

// Root returns the FMH root digest.
func (l *List) Root() hashing.Digest { return l.Tree.Root() }

// LeafCount returns the total tree leaves, n+2.
func (l *List) LeafCount() int { return l.N + 2 }

// Reader reads a list's records by sorted position. It keeps the path of
// its last read and climbs it only to the lowest node covering the next
// leaf, so a binary search's later probes and a scan cost O(1) amortised.
type Reader struct {
	path [32]*mhtree.Node // path[0] is the root; W is 32-bit, so at most 31 levels
	off  [32]int          // the first leaf under path[d]
	d    int              // depth of the last leaf read
}

// Reader returns a reader over the list.
func (l *List) Reader() Reader { return Reader{path: [32]*mhtree.Node{l.Tree}} }

// At returns the index of the record at sorted position p in [-1, n]; the
// sentinel positions -1 and n read mhtree.NoRecord.
func (r *Reader) At(p int) int {
	i := p + 1 // the leaf index
	if i < 0 || i >= int(r.path[0].W) {
		panic(fmt.Sprintf("fmh: record position %d out of range [-1,%d]", p, r.path[0].W-2))
	}
	d := r.d
	for i < r.off[d] || i >= r.off[d]+int(r.path[d].W) {
		d--
	}
	n, off := r.path[d], r.off[d]
	for n.W > 1 {
		if lw := verify.LeftWidth(int(n.W)); i < off+lw {
			n = n.L
		} else {
			n, off = n.R, off+lw
		}
		d++
		r.path[d], r.off[d] = n, off
	}
	r.d = d
	return int(n.Rec)
}

// Window appends the record indices at positions [start-1, start+count]
// — a result window and its two neighbors, exactly the leaves
// BoundaryProof covers — through one Reader. A neighbor that is a
// sentinel reads mhtree.NoRecord.
func (l *List) Window(dst []int, start, count int) ([]int, error) {
	if start < 0 || count < 0 || start+count > l.N {
		return nil, fmt.Errorf("fmh: window start=%d count=%d out of range for %d records", start, count, l.N)
	}
	r := l.Reader()
	for p := start - 1; p <= start+count; p++ {
		dst = append(dst, r.At(p))
	}
	return dst, nil
}

// DeriveSwap returns a new list with the records at sorted positions p and
// p+1 exchanged, sharing all untouched tree structure with l. This is the
// step between two adjacent subdomains whose orders differ by one
// transposition.
func (l *List) DeriveSwap(h *hashing.Hasher, p int) (*List, error) {
	if p < 0 || p+1 >= l.N {
		return nil, fmt.Errorf("fmh: swap at record position %d out of range [0,%d)", p, l.N-1)
	}
	return &List{N: l.N, Tree: mhtree.SwapLeaves(h, l.Tree, p+1)}, nil
}

// BoundaryProof writes into p the range proof covering record positions
// [start-1, start+count] — the result window plus its immediate left and
// right neighbors (which may be the sentinels) — reusing p's capacity.
// start is the record position of the first result record; count may be
// zero for an empty result window. The counter observes the server's
// traversal cost.
func (l *List) BoundaryProof(p *verify.Proof, start, count int, ctr *metrics.Counter) error {
	if start < 0 || count < 0 || start+count > l.N {
		return fmt.Errorf("fmh: window start=%d count=%d out of range for %d records", start, count, l.N)
	}
	// Tree leaves: left boundary at leaf index start, right boundary at
	// start+count+1.
	return l.Tree.RangeProof(p, start, start+count+1, ctr)
}
