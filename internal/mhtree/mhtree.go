// Package mhtree implements the Merkle hash tree used for function lists
// (the paper's FMH-tree construction, §3.1 step 2): nodes are paired left
// to right and an odd trailing node is promoted to the next level
// unchanged. This yields, equivalently, a recursive shape whose left
// subtree always covers the largest power of two strictly smaller than the
// node's leaf span — the form used here because it lets a verifier
// recompute the shape from the leaf count alone.
//
// Trees are immutable and persistent: deriving a tree that differs in one
// leaf (or an adjacent swap) copies only the O(log n) path to the root and
// shares everything else. The IFMH construction leans on this heavily —
// consecutive subdomains differ by adjacent transpositions, so S
// subdomains cost O(n + S log n) memory instead of O(S n).
package mhtree

import (
	"fmt"
	"math"
	"math/bits"

	"aqverify/internal/hashing"
	"aqverify/internal/metrics"
)

// Node is an immutable Merkle tree node covering W leaves. Leaf nodes have
// W == 1 and nil children; internal nodes have exactly two children with
// H = hash(TagNode | L.H | R.H).
//
// A leaf also names the record its digest commits to (Rec, NoRecord for a
// leaf that commits to none), so a tree over a sorted list is that list:
// RecordAt and Records read it back without any side table. Rec is not
// hashed — it is the server's index into its own table, and a wrong one
// only yields an answer that fails verification. W and Rec are 32-bit so
// the index costs the node no space: forests hold millions of nodes.
type Node struct {
	H    hashing.Digest
	L, R *Node
	W    int32
	Rec  int32
}

// NoRecord is the Rec of a leaf that commits to no record (and of every
// internal node).
const NoRecord = -1

// LeftWidth returns the leaf span of the left subtree of a node covering w
// leaves: the largest power of two strictly less than w. This is exactly
// the shape produced by the paper's pair-and-promote construction.
func LeftWidth(w int) int {
	if w < 2 {
		panic(fmt.Sprintf("mhtree: LeftWidth of width %d", w))
	}
	return 1 << (bits.Len(uint(w-1)) - 1)
}

// Build constructs a tree over the given leaf digests; recs[i] is the
// record leaf i commits to, and a nil recs means no leaf commits to one.
// It returns nil for an empty slice. The hasher's counter observes one
// hash per internal node (w-1 total).
func Build(h *hashing.Hasher, leaves []hashing.Digest, recs []int32) *Node {
	if len(leaves) == 0 {
		return nil
	}
	if len(leaves) > math.MaxInt32 || (recs != nil && len(recs) != len(leaves)) {
		panic(fmt.Sprintf("mhtree: %d leaves with %d record indices", len(leaves), len(recs)))
	}
	return build(h, leaves, recs, 0, len(leaves))
}

func build(h *hashing.Hasher, leaves []hashing.Digest, recs []int32, off, w int) *Node {
	if w == 1 {
		n := &Node{H: leaves[off], W: 1, Rec: NoRecord}
		if recs != nil {
			n.Rec = recs[off]
		}
		return n
	}
	lw := LeftWidth(w)
	return join(h, build(h, leaves, recs, off, lw), build(h, leaves, recs, off+lw, w-lw))
}

// join hashes a new internal node over l and r.
func join(h *hashing.Hasher, l, r *Node) *Node {
	return &Node{H: h.Node(l.H, r.H), L: l, R: r, W: l.W + r.W, Rec: NoRecord}
}

// Root returns the root digest.
func (n *Node) Root() hashing.Digest { return n.H }

// LeafCount returns the number of leaves under n.
func (n *Node) LeafCount() int { return int(n.W) }

// leaf descends to leaf i (0-based) in O(log n).
func (n *Node) leaf(i int) *Node {
	if i < 0 || i >= int(n.W) {
		panic(fmt.Sprintf("mhtree: leaf %d out of range [0,%d)", i, n.W))
	}
	for n.W > 1 {
		lw := LeftWidth(int(n.W))
		if i < lw {
			n = n.L
		} else {
			n = n.R
			i -= lw
		}
	}
	return n
}

// Leaf returns the digest of leaf i (0-based).
func (n *Node) Leaf(i int) hashing.Digest { return n.leaf(i).H }

// RecordAt returns the record leaf i commits to (NoRecord for none).
func (n *Node) RecordAt(i int) int { return int(n.leaf(i).Rec) }

// Records appends the records leaves [lo, hi] (inclusive) commit to, in
// leaf order, by one in-order pass that enters only subtrees overlapping
// the range: O(log n + hi - lo).
func (n *Node) Records(dst []int, lo, hi int) []int {
	if lo < 0 || hi >= int(n.W) || lo > hi {
		panic(fmt.Sprintf("mhtree: range [%d,%d] out of bounds for %d leaves", lo, hi, n.W))
	}
	return n.records(dst, 0, lo, hi)
}

func (n *Node) records(dst []int, off, lo, hi int) []int {
	if n.W == 1 {
		return append(dst, int(n.Rec))
	}
	lw := LeftWidth(int(n.W))
	if lo < off+lw {
		dst = n.L.records(dst, off, lo, hi)
	}
	if hi >= off+lw {
		dst = n.R.records(dst, off+lw, lo, hi)
	}
	return dst
}

// WithLeaf returns a tree equal to n except that leaf i holds digest d
// and commits to record rec. The returned tree shares all untouched
// subtrees with n.
func WithLeaf(h *hashing.Hasher, n *Node, i int, d hashing.Digest, rec int) *Node {
	if i < 0 || i >= int(n.W) {
		panic(fmt.Sprintf("mhtree: leaf %d out of range [0,%d)", i, n.W))
	}
	if n.W == 1 {
		return &Node{H: d, W: 1, Rec: int32(rec)}
	}
	lw := LeftWidth(int(n.W))
	if i < lw {
		return join(h, WithLeaf(h, n.L, i, d, rec), n.R)
	}
	return join(h, n.L, WithLeaf(h, n.R, i-lw, d, rec))
}

// SwapLeaves returns a tree with leaves i and i+1 exchanged — digest and
// record index together — sharing structure with n. This is the
// adjacent-transposition derivation used when walking from one
// subdomain's FMH-tree to the next.
//
// One descent: the shared path down to the two leaves' lowest common
// ancestor, then one WithLeaf on each side of it, so every new node —
// the two leaves and the union of their root paths — is built and
// hashed exactly once.
func SwapLeaves(h *hashing.Hasher, n *Node, i int) *Node {
	if i < 0 || i+1 >= int(n.W) {
		panic(fmt.Sprintf("mhtree: swap at %d out of range [0,%d)", i, n.W-1))
	}
	lw := LeftWidth(int(n.W))
	switch {
	case i+1 < lw:
		return join(h, SwapLeaves(h, n.L, i), n.R)
	case i >= lw:
		return join(h, n.L, SwapLeaves(h, n.R, i-lw))
	}
	// n is the lowest common ancestor: leaf i is the left subtree's
	// last, leaf i+1 the right subtree's first.
	a, b := n.L.leaf(i), n.R.leaf(0)
	return join(h, WithLeaf(h, n.L, i, b.H, int(b.Rec)), WithLeaf(h, n.R, 0, a.H, int(a.Rec)))
}

// ChangedNodes returns the number of nodes of next that are not the node
// at the same position in prev, for two trees of equal width — when next
// was derived from prev (SwapLeaves, WithLeaf), the nodes the derivation
// created. It descends only where the two differ, so a caller can size a
// table for a chain of lists' forest from the lists alone.
func ChangedNodes(prev, next *Node) int {
	if next == prev {
		return 0
	}
	if next.W == 1 {
		return 1
	}
	return 1 + ChangedNodes(prev.L, next.L) + ChangedNodes(prev.R, next.R)
}

// Leaves returns all leaf digests left to right. Intended for tests and
// small trees; it allocates O(n).
func (n *Node) Leaves() []hashing.Digest {
	out := make([]hashing.Digest, 0, n.W)
	var walk func(*Node)
	walk = func(m *Node) {
		if m.W == 1 {
			out = append(out, m.H)
			return
		}
		walk(m.L)
		walk(m.R)
	}
	walk(n)
	return out
}

// NodeCount returns the total number of distinct nodes reachable from n,
// deduplicating shared subtrees. It measures the real memory footprint of
// a persistent forest when called through CountForest.
func (n *Node) NodeCount() int {
	seen := make(map[*Node]bool)
	return countNodes(n, seen)
}

// CountForest returns the number of distinct nodes across a set of trees
// that may share structure.
func CountForest(roots []*Node) int {
	seen := make(map[*Node]bool)
	total := 0
	for _, r := range roots {
		if r != nil {
			total += countNodes(r, seen)
		}
	}
	return total
}

func countNodes(n *Node, seen map[*Node]bool) int {
	if n == nil || seen[n] {
		return 0
	}
	seen[n] = true
	return 1 + countNodes(n.L, seen) + countNodes(n.R, seen)
}

// Proof is the evidence needed to recompute a root from a contiguous leaf
// range: the digests of the maximal subtrees entirely outside the range,
// in deterministic depth-first order. Its size is O(log n) regardless of
// the range width.
type Proof struct {
	Hashes []hashing.Digest
}

// RangeProof builds the proof for leaves [lo, hi] (inclusive). The counter
// observes every node visited during construction, which is the server's
// VO-construction traversal cost in the paper's Fig 6.
func (n *Node) RangeProof(lo, hi int, ctr *metrics.Counter) (Proof, error) {
	if lo < 0 || hi >= int(n.W) || lo > hi {
		return Proof{}, fmt.Errorf("mhtree: range [%d,%d] out of bounds for %d leaves", lo, hi, n.W)
	}
	// A range leaves at most two outside subtrees per level.
	hashes := make([]hashing.Digest, 0, 2*bits.Len(uint(n.W)))
	return Proof{Hashes: n.rangeProof(hashes, 0, lo, hi, ctr)}, nil
}

func (n *Node) rangeProof(hashes []hashing.Digest, off, lo, hi int, ctr *metrics.Counter) []hashing.Digest {
	ctr.AddNodes(1)
	if off+int(n.W) <= lo || off > hi {
		// Entirely outside: contribute one digest.
		return append(hashes, n.H)
	}
	if n.W == 1 {
		return hashes // inside the range; verifier recomputes it
	}
	hashes = n.L.rangeProof(hashes, off, lo, hi, ctr)
	return n.R.rangeProof(hashes, off+LeftWidth(int(n.W)), lo, hi, ctr)
}

// ComputeRoot replays a range proof: given the tree's leaf count, the
// range start, the in-range leaf digests, and the proof, it recomputes the
// root digest using the same deterministic traversal as RangeProof. The
// caller compares the result against a trusted root. Errors indicate a
// malformed proof (wrong length), never a hash mismatch — mismatches
// surface as a different root.
//
// Authentication granularity: a matching root binds every in-range leaf
// digest to its absolute position. The leaf count itself is bound only to
// the extent it changes in-range placement — a forged count whose shape
// differences lie entirely inside proof-covered subtrees reproduces the
// root. Protocol layers must therefore never trust leafCount on its own;
// the FMH layer binds list length into the sentinel leaf digests, which
// are in range exactly when length matters (top-k boundaries).
func ComputeRoot(h *hashing.Hasher, leafCount, lo int, leaves []hashing.Digest, p Proof) (hashing.Digest, error) {
	// lo > leafCount-len(leaves), not lo+len(leaves) > leafCount: a forged
	// lo near the int limit cannot wrap, so hi cannot either.
	if leafCount <= 0 || lo < 0 || len(leaves) == 0 || lo > leafCount-len(leaves) {
		return hashing.Digest{}, fmt.Errorf("mhtree: invalid range of %d at %d for %d leaves", len(leaves), lo, leafCount)
	}
	hi := lo + len(leaves) - 1
	cursor := 0
	var rec func(off, w int) (hashing.Digest, error)
	rec = func(off, w int) (hashing.Digest, error) {
		if off+w <= lo || off > hi {
			if cursor >= len(p.Hashes) {
				return hashing.Digest{}, fmt.Errorf("mhtree: proof exhausted at subtree [%d,%d)", off, off+w)
			}
			d := p.Hashes[cursor]
			cursor++
			return d, nil
		}
		if w == 1 {
			return leaves[off-lo], nil
		}
		lw := LeftWidth(w)
		l, err := rec(off, lw)
		if err != nil {
			return hashing.Digest{}, err
		}
		r, err := rec(off+lw, w-lw)
		if err != nil {
			return hashing.Digest{}, err
		}
		return h.Node(l, r), nil
	}
	root, err := rec(0, leafCount)
	if err != nil {
		return hashing.Digest{}, err
	}
	if cursor != len(p.Hashes) {
		return hashing.Digest{}, fmt.Errorf("mhtree: proof has %d unused digests", len(p.Hashes)-cursor)
	}
	return root, nil
}
