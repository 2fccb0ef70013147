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
	"aqverify/internal/verify"
)

// Node is an immutable Merkle tree node covering W leaves. Leaf nodes have
// W == 1 and nil children; internal nodes have exactly two children with
// H = hash(TagNode | L.H | R.H).
//
// A leaf also names the record its digest commits to (Rec, NoRecord for a
// leaf that commits to none), so a tree over a sorted list is that list:
// a descent reads it back without any side table. Rec is not
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
	lw := verify.LeftWidth(w)
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
		lw := verify.LeftWidth(int(n.W))
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
	lw := verify.LeftWidth(int(n.W))
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
	lw := verify.LeftWidth(int(n.W))
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

// RangeProof writes the proof for leaves [lo, hi] (inclusive) into p,
// reusing p.Hashes' array. The counter observes every node visited, the
// server's VO-construction traversal cost in the paper's Fig 6.
func (n *Node) RangeProof(p *verify.Proof, lo, hi int, ctr *metrics.Counter) error {
	if lo < 0 || hi >= int(n.W) || lo > hi {
		return fmt.Errorf("mhtree: range [%d,%d] out of bounds for %d leaves", lo, hi, n.W)
	}
	// A range leaves at most two outside subtrees per level. Writing by
	// index keeps a caller's stack-backed array on its stack.
	if need := 2 * bits.Len(uint(n.W)); cap(p.Hashes) < need {
		p.Hashes = make([]hashing.Digest, need)
	}
	p.Hashes = p.Hashes[:cap(p.Hashes)]
	p.Hashes = p.Hashes[:n.rangeProof(p.Hashes, 0, 0, lo, hi, ctr)]
	return nil
}

func (n *Node) rangeProof(dst []hashing.Digest, k, off, lo, hi int, ctr *metrics.Counter) int {
	ctr.AddNodes(1)
	if off+int(n.W) <= lo || off > hi {
		// Entirely outside: contribute one digest.
		dst[k] = n.H
		return k + 1
	}
	if n.W == 1 {
		return k // inside the range; verifier recomputes it
	}
	k = n.L.rangeProof(dst, k, off, lo, hi, ctr)
	return n.R.rangeProof(dst, k, off+verify.LeftWidth(int(n.W)), lo, hi, ctr)
}
