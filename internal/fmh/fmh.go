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
// A list is a root row in an mhtree.Forest, the one table its
// neighbours' lists share rows in. Lists are immutable; Derive appends
// the next subdomain's list in O(log n) rows per moved record, sharing
// every untouched row, and leaves the hashing to one pass over the
// forest (mhtree.Forest.HashCtx). The client's counterpart of
// BoundaryProof is verify.ComputeFMHRoot.
package fmh

import (
	"fmt"

	"aqverify/internal/hashing"
	"aqverify/internal/metrics"
	"aqverify/internal/mhtree"
	"aqverify/internal/verify"
)

// List is one subdomain's FMH-tree: the tree at row Row of Forest. N is
// the record count (excluding sentinels).
type List struct {
	N      int
	Forest *mhtree.Forest
	Row    uint32
}

// Build appends to f the FMH-tree for a sorted function list and hashes
// it: perm[p] is the index of the record at sorted position p, and
// leaf[rec] is that record's leaf digest, h.Leaf of the record.
// Sentinel leaves are added automatically and commit to no record. Every
// row of f before the new ones must already be hashed.
func Build(h *hashing.Hasher, f *mhtree.Forest, perm []int, leaf []hashing.Digest) List {
	n := len(perm)
	leaves := make([]hashing.Digest, n+2)
	recs := make([]int32, n+2)
	leaves[0], recs[0] = h.SentinelMin(n), mhtree.NoRecord
	for p, rec := range perm {
		leaves[p+1], recs[p+1] = leaf[rec], int32(rec)
	}
	leaves[n+1], recs[n+1] = h.SentinelMax(n), mhtree.NoRecord
	from := uint32(f.Len())
	l := List{N: n, Forest: f, Row: f.Build(leaves, recs)}
	f.Hash(h, from)
	return l
}

// Derive returns the list whose order is perm, for a perm that differs
// from l's order only at the record positions at (ascending, without
// repeats, in [0, n)): one path-copying pass (mhtree.Forest.Derive)
// appends a leaf row naming perm[p], with digest leaf[perm[p]], for each
// p in at and a row for each of their ancestors. This is the step between
// two adjacent subdomains, whose orders differ by the boundary's
// transpositions. It appends structure only: the new internal rows, and
// so the list's root, read zero until the forest's hash pass fills them,
// once for a whole chain of derivations.
func (l List) Derive(at, perm []int, leaf []hashing.Digest) List {
	l.Row = l.Forest.Derive(l.Row, -1, at, func(p int) (hashing.Digest, int) {
		return leaf[perm[p]], perm[p]
	})
	return l
}

// Root returns the FMH root digest.
func (l *List) Root() hashing.Digest { return l.Forest.Digest(l.Row) }

// Reader reads a list's records by sorted position. It keeps the path of
// its last read and climbs it only to the lowest row covering the next
// leaf, so a binary search's later probes and a scan cost O(1) amortised.
type Reader struct {
	f    *mhtree.Forest
	path [32]uint32 // path[0] is the root; widths are 32-bit, so at most 31 levels
	off  [32]int    // the first leaf under path[d]
	d    int        // depth of the last leaf read
}

// Reader returns a reader over the list.
func (l *List) Reader() Reader { return Reader{f: l.Forest, path: [32]uint32{l.Row}} }

// At returns the index of the record at sorted position p in [-1, n]; the
// sentinel positions -1 and n read mhtree.NoRecord.
func (r *Reader) At(p int) int {
	i := p + 1 // the leaf index
	if w := r.f.Width(r.path[0]); i < 0 || i >= w {
		panic(fmt.Sprintf("fmh: record position %d out of range [-1,%d]", p, w-2))
	}
	d := r.d
	for i < r.off[d] || i >= r.off[d]+r.f.Width(r.path[d]) {
		d--
	}
	n, off := r.path[d], r.off[d]
	for w := r.f.Width(n); w > 1; d++ {
		lc, rc := r.f.Children(n)
		if lw := verify.LeftWidth(w); i < off+lw {
			n, w = lc, lw
		} else {
			n, off, w = rc, off+lw, w-lw
		}
		r.path[d+1], r.off[d+1] = n, off
	}
	r.d = d
	return r.f.Rec(n)
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
	return l.Forest.RangeProof(p, l.Row, start, start+count+1, ctr)
}
