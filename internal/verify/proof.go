package verify

import (
	"fmt"
	"math/bits"

	"aqverify/internal/hashing"
)

// Proof is the evidence needed to recompute a Merkle root from a
// contiguous leaf range: the digests of the maximal subtrees entirely
// outside the range, in deterministic depth-first order. Its size is
// O(log n) regardless of the range width. The server writes it
// (mhtree.Node.RangeProof); ComputeRoot replays it.
type Proof struct {
	Hashes []hashing.Digest
}

// LeftWidth returns the leaf span of the left subtree of a node covering w
// leaves: the largest power of two strictly less than w. This is exactly
// the shape produced by the paper's pair-and-promote construction, and it
// lets a verifier recompute the shape from the leaf count alone.
func LeftWidth(w int) int {
	if w < 2 {
		panic(fmt.Sprintf("verify: LeftWidth of width %d", w))
	}
	return 1 << (bits.Len(uint(w-1)) - 1)
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
		return hashing.Digest{}, fmt.Errorf("verify: invalid range of %d at %d for %d leaves", len(leaves), lo, leafCount)
	}
	hi := lo + len(leaves) - 1
	cursor := 0
	var rec func(off, w int) (hashing.Digest, error)
	rec = func(off, w int) (hashing.Digest, error) {
		if off+w <= lo || off > hi {
			if cursor >= len(p.Hashes) {
				return hashing.Digest{}, fmt.Errorf("verify: proof exhausted at subtree [%d,%d)", off, off+w)
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
		return hashing.Digest{}, fmt.Errorf("verify: proof has %d unused digests", len(p.Hashes)-cursor)
	}
	return root, nil
}

// ComputeFMHRoot is the verifier-side counterpart of fmh's BoundaryProof:
// it recomputes an FMH root from the claimed list length n, window start,
// the leaf digests of [left boundary, window..., right boundary], and the
// proof. leaves must have length count+2. The tree has n+2 leaves, the
// two sentinels included.
func ComputeFMHRoot(h *hashing.Hasher, n, start int, leaves []hashing.Digest, p Proof) (hashing.Digest, error) {
	if n < 0 {
		return hashing.Digest{}, fmt.Errorf("verify: negative list length %d", n)
	}
	return ComputeRoot(h, n+2, start, leaves, p)
}
