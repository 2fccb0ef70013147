// Package mhtree implements the Merkle hash tree used for function lists
// (the paper's FMH-tree construction, §3.1 step 2): nodes are paired left
// to right and an odd trailing node is promoted to the next level
// unchanged. This yields, equivalently, a recursive shape whose left
// subtree always covers the largest power of two strictly smaller than the
// node's leaf span (verify.LeftWidth) — the form used here because it
// lets a verifier recompute the shape from the leaf count alone.
//
// This package is the server's and the owner's side: it builds, derives
// and walks trees and writes range proofs. The proof format and its
// check (verify.Proof, verify.ComputeRoot) are the client's, in package
// verify, which this package imports and never the reverse.
//
// Trees live in a Forest: one pointer-free table of fixed-size rows —
// digest, left child, right child, width — appended children before
// parents, a tree being the index of its root row. Build and Derive
// append structure only — internal rows get a zero digest — and one
// pass (Hash, or HashCtx over contiguous row ranges on several
// goroutines) then fills every new internal row; no row changes after
// that. Deriving a tree that differs at a few leaves appends a row for
// each of them and each of their ancestors and shares every other row.
// The IFMH construction leans on this heavily — consecutive subdomains
// differ by adjacent transpositions, so S subdomains cost O(n + S log n)
// rows instead of O(S n) — and the garbage collector never scans the
// table, which holds no pointer. The rows are the artifact's forest
// section byte for byte, so saving a forest is one append and opening
// one is one copy.
package mhtree

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"aqverify/internal/hashing"
	"aqverify/internal/metrics"
	"aqverify/internal/pool"
	"aqverify/internal/verify"
)

// RowSize is one row's bytes: the digest, then three big-endian u32s —
// the left child, the right child and the width (the leaves under the
// row). A leaf row (width 1) has None on the left and, on the right, the
// record its digest commits to (None for none). The record index is not
// hashed — it is the server's index into its own table, and a wrong one
// only yields an answer that fails verification.
const RowSize = hashing.Size + 4 + 4 + 4

// None is the u32 in a leaf row's left slot, and in the right slot of a
// leaf that commits to no record.
const None = ^uint32(0)

// NoRecord is the record a leaf that commits to none reads as.
const NoRecord = -1

// Forest is a table of rows, each row's children strictly before it.
// Rows are only ever appended; a row index, once returned, names the same
// tree for the forest's lifetime.
type Forest struct {
	rows []byte
}

// FromRows wraps a row table without copying it. The caller has checked
// that len(rows) is a multiple of RowSize and that every row is well
// formed (children before parents, widths consistent with
// verify.LeftWidth); the forest's readers index by the table alone.
func FromRows(rows []byte) *Forest { return &Forest{rows: rows} }

// Rows returns the table. It aliases the forest: callers must not modify
// it.
func (f *Forest) Rows() []byte { return f.rows }

// Len returns the row count.
func (f *Forest) Len() int { return len(f.rows) / RowSize }

// Grow reserves room for n more rows, at least doubling the table when it
// grows, so a forest built row by row copies each row about once.
func (f *Forest) Grow(n int) {
	if need := len(f.rows) + n*RowSize; need > cap(f.rows) {
		f.rows = append(make([]byte, 0, max(need, 2*cap(f.rows))), f.rows...)
	}
}

// Digest returns row i's digest.
func (f *Forest) Digest(i uint32) hashing.Digest {
	o := int(i) * RowSize
	return hashing.Digest(f.rows[o : o+hashing.Size])
}

// Children returns row i's left and right slots.
func (f *Forest) Children(i uint32) (l, r uint32) {
	o := int(i)*RowSize + hashing.Size
	return binary.BigEndian.Uint32(f.rows[o:]), binary.BigEndian.Uint32(f.rows[o+4:])
}

// Width returns the number of leaves under row i.
func (f *Forest) Width(i uint32) int {
	return int(binary.BigEndian.Uint32(f.rows[int(i)*RowSize+hashing.Size+8:]))
}

// Rec returns the record leaf row i commits to, NoRecord for none.
func (f *Forest) Rec(i uint32) int {
	_, r := f.Children(i)
	return int(int32(r))
}

// row appends one row and returns its index.
func (f *Forest) row(d hashing.Digest, l, r uint32, w int) uint32 {
	i := uint32(f.Len())
	f.Grow(1)
	o := len(f.rows)
	f.rows = f.rows[:o+RowSize]
	copy(f.rows[o:], d[:])
	binary.BigEndian.PutUint32(f.rows[o+hashing.Size:], l)
	binary.BigEndian.PutUint32(f.rows[o+hashing.Size+4:], r)
	binary.BigEndian.PutUint32(f.rows[o+hashing.Size+8:], uint32(w))
	return i
}

// join appends the internal row over l and r with a zero digest, for
// Hash to fill.
func (f *Forest) join(l, r uint32) uint32 {
	return f.row(hashing.Digest{}, l, r, f.Width(l)+f.Width(r))
}

// Build appends the structure of a tree over the given leaf digests and
// returns its root row; recs[i] is the record leaf i commits to, and a
// nil recs means no leaf commits to one. It returns None for an empty
// slice. The rows are appended in post-order, left before right. Leaf
// rows carry their digests; internal rows read zero until Hash fills
// them.
func (f *Forest) Build(leaves []hashing.Digest, recs []int32) uint32 {
	if len(leaves) == 0 {
		return None
	}
	if len(leaves) > math.MaxInt32 || (recs != nil && len(recs) != len(leaves)) {
		panic(fmt.Sprintf("mhtree: %d leaves with %d record indices", len(leaves), len(recs)))
	}
	return f.build(leaves, recs, 0, len(leaves))
}

func (f *Forest) build(leaves []hashing.Digest, recs []int32, off, w int) uint32 {
	if w == 1 {
		rec := None
		if recs != nil {
			rec = uint32(recs[off])
		}
		return f.row(leaves[off], None, rec, 1)
	}
	lw := verify.LeftWidth(w)
	l := f.build(leaves, recs, off, lw)
	return f.join(l, f.build(leaves, recs, off+lw, w-lw))
}

// Derive appends the structure of a tree equal to the one at root except
// at the leaf positions at, ascending, without repeats and inside the
// tree, and returns its root row: the leaf at position p holds the digest
// and record leaf(p) returns. Positions count from first, the position of
// root's leaf 0.
//
// One path-copying pass appends a row for each of those leaves and for
// each of their ancestors — in post-order, left before right — and shares
// every other row, so a subdomain whose order differs from its
// neighbour's by any number of transpositions costs exactly the rows on
// the union of the moved leaves' root paths; the Hash pass then spends
// one hash per new internal row. With no positions it returns root.
func (f *Forest) Derive(root uint32, first int, at []int, leaf func(p int) (hashing.Digest, int)) uint32 {
	if len(at) == 0 {
		return root
	}
	return f.derive(root, f.Width(root), first, at, leaf)
}

func (f *Forest) derive(n uint32, w, off int, at []int, leaf func(p int) (hashing.Digest, int)) uint32 {
	if w == 1 {
		d, rec := leaf(at[0])
		return f.row(d, None, uint32(rec), 1)
	}
	lw := verify.LeftWidth(w)
	k := 0
	for k < len(at) && at[k] < off+lw {
		k++
	}
	l, r := f.Children(n)
	if k > 0 {
		l = f.derive(l, lw, off, at[:k], leaf)
	}
	if k < len(at) {
		r = f.derive(r, w-lw, off+lw, at[k:], leaf)
	}
	return f.join(l, r)
}

// Hash fills, in row order, the digest of every internal row at or
// after from; every row before from must already be hashed. h's counter
// observes one hash per row filled.
func (f *Forest) Hash(h *hashing.Hasher, from uint32) {
	f.hashRange(h, from, from, uint32(f.Len()))
}

// HashCtx is Hash cut into workers contiguous ranges of equal row count,
// hashed concurrently, each in row order. A child in an earlier range is
// recomputed privately (memoised, uncounted) rather than read from a
// slot another worker writes: on a derivation chain, whose trees reach
// back only into the tree they derive from, that is about one tree's
// internal rows per extra worker. The workers write disjoint digest
// slots, so the rows are the same bytes, and h's counter sees one hash
// per row filled, at every worker count. A ctx done before a range
// starts skips it, and HashCtx returns ctx.Err().
func (f *Forest) HashCtx(ctx context.Context, h *hashing.Hasher, from uint32, workers int) error {
	n := uint32(f.Len())
	if from >= n {
		return ctx.Err()
	}
	workers = max(1, min(workers, int(n-from)))
	ctrs := make([]metrics.Counter, workers)
	err := pool.RunCtx(ctx, workers, workers, func(_, k int) {
		lo := from + uint32(uint64(n-from)*uint64(k)/uint64(workers))
		hi := from + uint32(uint64(n-from)*uint64(k+1)/uint64(workers))
		f.hashRange(h.WithCounter(&ctrs[k]), from, lo, hi)
	})
	for _, c := range ctrs {
		h.Counter().Add(c)
	}
	return err
}

// hashRange hashes the internal rows in [lo, hi), a range of the rows
// from on.
func (f *Forest) hashRange(h *hashing.Hasher, from, lo, hi uint32) {
	b := below{f: f, h: h.WithCounter(nil), from: from, lo: lo}
	for i := lo; i < hi; i++ {
		if l, r := f.Children(i); l != None {
			d := h.Node(b.digest(l), b.digest(r))
			copy(f.rows[int(i)*RowSize:], d[:])
		}
	}
}

// below reads a child's digest for a worker whose range starts at lo: a
// leaf, a row before from or a row of its own range is in the table,
// and an internal row in [from, lo) — another worker's, perhaps not yet
// written — is recomputed here once.
type below struct {
	f        *Forest
	h        *hashing.Hasher
	from, lo uint32
	memo     map[uint32]hashing.Digest
}

func (b *below) digest(i uint32) hashing.Digest {
	if i < b.from || i >= b.lo {
		return b.f.Digest(i)
	}
	l, r := b.f.Children(i)
	if l == None {
		return b.f.Digest(i)
	}
	if d, ok := b.memo[i]; ok {
		return d
	}
	if b.memo == nil {
		b.memo = make(map[uint32]hashing.Digest)
	}
	d := b.h.Node(b.digest(l), b.digest(r))
	b.memo[i] = d
	return d
}

// Append appends g's rows to f, moving their child indices past f's rows,
// and returns that shift: g's row i is f's row i+shift. It joins tables
// built apart (one per worker) into one.
func (f *Forest) Append(g *Forest) (shift uint32) {
	shift = uint32(f.Len())
	at := len(f.rows)
	f.rows = append(f.rows, g.rows...)
	for o := at + hashing.Size; o < len(f.rows); o += RowSize {
		if l := binary.BigEndian.Uint32(f.rows[o:]); l != None {
			binary.BigEndian.PutUint32(f.rows[o:], l+shift)
			binary.BigEndian.PutUint32(f.rows[o+4:], binary.BigEndian.Uint32(f.rows[o+4:])+shift)
		}
	}
	return shift
}

// RangeProof writes the proof for leaves [lo, hi] (inclusive) of the tree
// at root into p, reusing p.Hashes' array. The counter observes every
// row visited, the server's VO-construction traversal cost in the
// paper's Fig 6.
func (f *Forest) RangeProof(p *verify.Proof, root uint32, lo, hi int, ctr *metrics.Counter) error {
	w := f.Width(root)
	if lo < 0 || hi >= w || lo > hi {
		return fmt.Errorf("mhtree: range [%d,%d] out of bounds for %d leaves", lo, hi, w)
	}
	// A range leaves at most two outside subtrees per level. Writing by
	// index keeps a caller's stack-backed array on its stack.
	if need := 2 * bits.Len(uint(w)); cap(p.Hashes) < need {
		p.Hashes = make([]hashing.Digest, need)
	}
	p.Hashes = p.Hashes[:cap(p.Hashes)]
	p.Hashes = p.Hashes[:f.rangeProof(p.Hashes, root, w, 0, 0, lo, hi, ctr)]
	return nil
}

func (f *Forest) rangeProof(dst []hashing.Digest, n uint32, w, k, off, lo, hi int, ctr *metrics.Counter) int {
	ctr.AddNodes(1)
	if off+w <= lo || off > hi {
		// Entirely outside: contribute one digest.
		dst[k] = f.Digest(n)
		return k + 1
	}
	if w == 1 {
		return k // inside the range; verifier recomputes it
	}
	l, r := f.Children(n)
	lw := verify.LeftWidth(w)
	k = f.rangeProof(dst, l, lw, k, off, lo, hi, ctr)
	return f.rangeProof(dst, r, w-lw, k, off+lw, lo, hi, ctr)
}
