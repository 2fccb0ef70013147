package mhtree

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"aqverify/internal/hashing"
	"aqverify/internal/metrics"
	"aqverify/internal/verify"
)

func mkLeaves(n int, seed int64) []hashing.Digest {
	rng := rand.New(rand.NewSource(seed))
	out := make([]hashing.Digest, n)
	for i := range out {
		rng.Read(out[i][:])
	}
	return out
}

// leavesOf returns all leaf digests of the tree at root, left to right.
func leavesOf(f *Forest, root uint32) []hashing.Digest {
	out := make([]hashing.Digest, 0, f.Width(root))
	var walk func(uint32)
	walk = func(n uint32) {
		if f.Width(n) == 1 {
			out = append(out, f.Digest(n))
			return
		}
		l, r := f.Children(n)
		walk(l)
		walk(r)
	}
	walk(root)
	return out
}

// leaf descends to leaf i of the tree at root.
func leaf(f *Forest, root uint32, i int) uint32 {
	for w := f.Width(root); w > 1; {
		l, r := f.Children(root)
		if lw := verify.LeftWidth(w); i < lw {
			root, w = l, lw
		} else {
			root, w, i = r, w-lw, i-lw
		}
	}
	return root
}

// build is Build with the new rows hashed.
func build(h *hashing.Hasher, f *Forest, leaves []hashing.Digest, recs []int32) uint32 {
	from := uint32(f.Len())
	root := f.Build(leaves, recs)
	f.Hash(h, from)
	return root
}

// derive is Derive with the new rows hashed.
func derive(h *hashing.Hasher, f *Forest, root uint32, at []int, leaf func(p int) (hashing.Digest, int)) uint32 {
	from := uint32(f.Len())
	root = f.Derive(root, 0, at, leaf)
	f.Hash(h, from)
	return root
}

// withLeaf derives the tree with leaf i holding d and rec.
func withLeaf(h *hashing.Hasher, f *Forest, root uint32, i int, d hashing.Digest, rec int) uint32 {
	return derive(h, f, root, []int{i}, func(int) (hashing.Digest, int) { return d, rec })
}

// swapLeaves derives, in one pass, the tree with leaves i and i+1
// exchanged — digest and record together.
func swapLeaves(h *hashing.Hasher, f *Forest, root uint32, i int) uint32 {
	a, b := leaf(f, root, i), leaf(f, root, i+1)
	return derive(h, f, root, []int{i, i + 1}, func(p int) (hashing.Digest, int) {
		if p == i {
			return f.Digest(b), f.Rec(b)
		}
		return f.Digest(a), f.Rec(a)
	})
}

func TestLeftWidth(t *testing.T) {
	tests := []struct{ w, want int }{
		{2, 1}, {3, 2}, {4, 2}, {5, 4}, {6, 4}, {7, 4}, {8, 4},
		{9, 8}, {12, 8}, {16, 8}, {17, 16},
	}
	for _, tc := range tests {
		if got := verify.LeftWidth(tc.w); got != tc.want {
			t.Errorf("verify.LeftWidth(%d) = %d, want %d", tc.w, got, tc.want)
		}
	}
}

// buildBottomUp is an independent implementation of the paper's literal
// construction (§3.1 step 2): pair nodes left to right per level, promote
// an odd trailing node unchanged. Used to prove the recursive Build is the
// same tree.
func buildBottomUp(h *hashing.Hasher, leaves []hashing.Digest) hashing.Digest {
	type nd struct{ d hashing.Digest }
	level := make([]nd, len(leaves))
	for i, l := range leaves {
		level[i] = nd{d: l}
	}
	for len(level) > 1 {
		var next []nd
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, nd{d: h.Node(level[i].d, level[i+1].d)})
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0].d
}

func TestBuildMatchesPaperConstruction(t *testing.T) {
	h := hashing.New(nil)
	for n := 1; n <= 70; n++ {
		leaves := mkLeaves(n, int64(n))
		f := new(Forest)
		root := build(h, f, leaves, nil)
		if f.Width(root) != n || f.Len() != 2*n-1 {
			t.Fatalf("n=%d: width %d in %d rows", n, f.Width(root), f.Len())
		}
		want := buildBottomUp(h, leaves)
		if f.Digest(root) != want {
			t.Fatalf("n=%d: recursive build root differs from pair-and-promote root", n)
		}
	}
}

func TestBuildEmpty(t *testing.T) {
	f := new(Forest)
	if build(hashing.New(nil), f, nil, nil) != None || f.Len() != 0 {
		t.Error("empty build should be None and append nothing")
	}
}

func TestBuildHashCount(t *testing.T) {
	var ctr metrics.Counter
	h := hashing.New(&ctr)
	build(h, new(Forest), mkLeaves(33, 1), nil)
	if ctr.Hashes != 32 {
		t.Errorf("building 33 leaves used %d hashes, want 32 (w-1 internal nodes)", ctr.Hashes)
	}
}

func TestLeafAccess(t *testing.T) {
	h := hashing.New(nil)
	leaves := mkLeaves(13, 2)
	f := new(Forest)
	root := build(h, f, leaves, nil)
	for i, want := range leaves {
		if got := f.Digest(leaf(f, root, i)); got != want {
			t.Fatalf("leaf %d mismatch", i)
		}
	}
	if !slices.Equal(leavesOf(f, root), leaves) {
		t.Fatal("the leaves read back differently")
	}
}

func TestWithLeaf(t *testing.T) {
	h := hashing.New(nil)
	leaves := mkLeaves(10, 3)
	f := new(Forest)
	tree := build(h, f, leaves, nil)
	var repl hashing.Digest
	repl[0] = 0xff
	for i := 0; i < 10; i++ {
		mod := withLeaf(h, f, tree, i, repl, NoRecord)
		want := append([]hashing.Digest(nil), leaves...)
		want[i] = repl
		if f.Digest(mod) != fresh(h, want) {
			t.Fatalf("deriving leaf %d: root differs from fresh build", i)
		}
		// Original is untouched (persistence).
		if f.Digest(leaf(f, tree, i)) != leaves[i] {
			t.Fatalf("deriving leaf %d changed the original", i)
		}
	}
}

func TestSwapLeaves(t *testing.T) {
	h := hashing.New(nil)
	for _, n := range []int{2, 3, 5, 8, 11, 16} {
		leaves := mkLeaves(n, int64(n)*7)
		f := new(Forest)
		tree := build(h, f, leaves, nil)
		for i := 0; i+1 < n; i++ {
			swapped := swapLeaves(h, f, tree, i)
			want := append([]hashing.Digest(nil), leaves...)
			want[i], want[i+1] = want[i+1], want[i]
			if f.Digest(swapped) != fresh(h, want) {
				t.Fatalf("n=%d swap at %d: root differs from fresh build", n, i)
			}
		}
	}
}

// oneByOne derives the positions at one at a time, each a root-path
// rewrite the next may partly discard: the reference the one-pass
// derivation must reproduce row for row.
func oneByOne(h *hashing.Hasher, f *Forest, root uint32, at []int, leaf func(p int) (hashing.Digest, int)) uint32 {
	for _, p := range at {
		d, rec := leaf(p)
		root = withLeaf(h, f, root, p, d, rec)
	}
	return root
}

// sameTree reports whether a and b are the same tree row for row: a row
// below old (a row of the tree derived from) must be shared by both,
// and a new one must agree in digest, width and record with new
// children alike.
func sameTree(f *Forest, a, b uint32, old uint32) bool {
	if a < old || b < old {
		return a == b
	}
	if f.Digest(a) != f.Digest(b) || f.Width(a) != f.Width(b) {
		return false
	}
	al, ar := f.Children(a)
	bl, br := f.Children(b)
	if f.Width(a) == 1 {
		return al == bl && ar == br
	}
	return sameTree(f, al, bl, old) && sameTree(f, ar, br, old)
}

// newRows counts the rows of the tree at n at or above old.
func newRows(f *Forest, n uint32, old uint32) int {
	if n < old {
		return 0
	}
	if f.Width(n) == 1 {
		return 1
	}
	l, r := f.Children(n)
	return 1 + newRows(f, l, old) + newRows(f, r, old)
}

// TestSwapLeavesIsTwoWithLeaf holds the one-pass derivation to the
// composition of one-leaf rewrites at every width, for a swap at every
// position and for random sets of moved leaves — same digests, records
// and shared rows — and to its cost: a row for each moved leaf and one
// hashed row per row on the union of their root paths, and nothing else
// appended.
func TestSwapLeavesIsTwoWithLeaf(t *testing.T) {
	var ctr metrics.Counter
	h, ref := hashing.New(&ctr), hashing.New(nil)
	rng := rand.New(rand.NewSource(26))
	for w := 2; w <= 300; w++ {
		recs := make([]int32, w)
		for i, r := range rng.Perm(w) {
			recs[i] = int32(r)
		}
		leaves := mkLeaves(w, int64(w))
		f := new(Forest)
		tree := build(ref, f, leaves, recs)
		check := func(at []int, leafAt func(p int) (hashing.Digest, int)) uint32 {
			t.Helper()
			old := uint32(f.Len())
			ctr = metrics.Counter{}
			got := derive(h, f, tree, at, leafAt)
			made := f.Len() - int(old)
			want := oneByOne(ref, f, tree, at, leafAt)
			if !sameTree(f, got, want, old) {
				t.Fatalf("w=%d at=%v: the derived tree is not the one-by-one tree row for row", w, at)
			}
			if !slices.Equal(records(f, got, 0, w-1), records(f, want, 0, w-1)) {
				t.Fatalf("w=%d at=%v: records differ", w, at)
			}
			if n := newRows(f, got, old); made != n {
				t.Fatalf("w=%d at=%v: %d rows appended, the tree holds %d new", w, at, made, n)
			}
			if int(ctr.Hashes) != made-len(at) {
				t.Fatalf("w=%d at=%v: %d hashes for %d new internal rows", w, at, ctr.Hashes, made-len(at))
			}
			return got
		}
		for i := 0; i+1 < w; i++ {
			a, b := leaf(f, tree, i), leaf(f, tree, i+1)
			check([]int{i, i + 1}, func(p int) (hashing.Digest, int) {
				if p == i {
					return f.Digest(b), f.Rec(b)
				}
				return f.Digest(a), f.Rec(a)
			})
		}
		for k := 0; k < 5; k++ {
			at := rng.Perm(w)[:1+rng.Intn(w)]
			slices.Sort(at)
			got := check(at, func(p int) (hashing.Digest, int) { return leaves[w-1-p], p })
			want := slices.Clone(leaves)
			for _, p := range at {
				want[p] = leaves[w-1-p]
			}
			if f.Digest(got) != fresh(ref, want) {
				t.Fatalf("w=%d at=%v: root differs from fresh build", w, at)
			}
		}
	}
}

// TestHashIsOnePassAtEveryWorkerCount: a derivation chain appended
// unhashed after a hashed tree, then hashed from its first new row, is
// the same table at every worker count — every cut between two workers
// lands somewhere inside a derived tree — with one counted hash per new
// internal row, and every tree's root is the root of a fresh build over
// its leaves.
func TestHashIsOnePassAtEveryWorkerCount(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	const w = 67
	leaves := mkLeaves(w, 49)
	chain := new(Forest)
	roots := []uint32{build(hashing.New(nil), chain, leaves, nil)}
	from := uint32(chain.Len())
	want := [][]hashing.Digest{slices.Clone(leaves)}
	for k := 0; k < 60; k++ {
		at := rng.Perm(w)[:1+rng.Intn(4)]
		slices.Sort(at)
		for _, p := range at {
			leaves[p] = mkLeaves(1, int64(100*k+p))[0]
		}
		roots = append(roots, chain.Derive(roots[len(roots)-1], 0, at, func(p int) (hashing.Digest, int) { return leaves[p], NoRecord }))
		want = append(want, slices.Clone(leaves))
	}
	internal := 0
	for i := from; i < uint32(chain.Len()); i++ {
		if chain.Width(i) > 1 {
			internal++
		}
	}
	var ref []byte
	for _, workers := range []int{1, 2, 3, 5, 8, 64} {
		f := FromRows(slices.Clone(chain.Rows()))
		var ctr metrics.Counter
		if err := f.HashCtx(context.Background(), hashing.New(&ctr), from, workers); err != nil {
			t.Fatal(err)
		}
		if int(ctr.Hashes) != internal {
			t.Errorf("workers=%d: %d hashes for %d new internal rows", workers, ctr.Hashes, internal)
		}
		if workers == 1 {
			ref = f.Rows()
			for k, root := range roots {
				if f.Digest(root) != fresh(hashing.New(nil), want[k]) {
					t.Fatalf("tree %d: root differs from a fresh build over its leaves", k)
				}
			}
		} else if !slices.Equal(f.Rows(), ref) {
			t.Fatalf("workers=%d: the hashed rows differ from the serial pass's", workers)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := FromRows(slices.Clone(chain.Rows())).HashCtx(ctx, hashing.New(nil), from, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("a canceled pass returned %v", err)
	}
}

func TestPersistentSharingBoundsMemory(t *testing.T) {
	h := hashing.New(nil)
	n := 256
	f := new(Forest)
	cur := build(h, f, mkLeaves(n, 9), nil)
	derivations := 200
	for i := 0; i < derivations; i++ {
		cur = swapLeaves(h, f, cur, i%(n-1))
	}
	// A fresh build per derivation would cost (2n-1) * (derivations+1)
	// ≈ 102k rows; sharing should stay well under a quarter of that.
	independent := (2*n - 1) * (derivations + 1)
	if f.Len() >= independent/4 {
		t.Errorf("persistent forest has %d rows; expected far fewer than %d", f.Len(), independent)
	}
}

func TestRangeProofRoundTrip(t *testing.T) {
	h := hashing.New(nil)
	for _, n := range []int{1, 2, 3, 7, 8, 13, 32, 57} {
		leaves := mkLeaves(n, int64(n)*13)
		f := new(Forest)
		tree := build(h, f, leaves, nil)
		for lo := 0; lo < n; lo++ {
			for hi := lo; hi < n; hi++ {
				proof, err := rangeProof(f, tree, lo, hi, nil)
				if err != nil {
					t.Fatalf("n=%d RangeProof(%d,%d): %v", n, lo, hi, err)
				}
				root, err := verify.ComputeRoot(h, n, lo, leaves[lo:hi+1], proof)
				if err != nil {
					t.Fatalf("n=%d verify.ComputeRoot(%d,%d): %v", n, lo, hi, err)
				}
				if root != f.Digest(tree) {
					t.Fatalf("n=%d range [%d,%d]: recomputed root differs", n, lo, hi)
				}
			}
		}
	}
}

func TestRangeProofRejectsBadRange(t *testing.T) {
	f := new(Forest)
	tree := build(hashing.New(nil), f, mkLeaves(5, 1), nil)
	for _, rg := range [][2]int{{-1, 2}, {0, 5}, {3, 2}} {
		if _, err := rangeProof(f, tree, rg[0], rg[1], nil); err == nil {
			t.Errorf("RangeProof(%d,%d) accepted", rg[0], rg[1])
		}
	}
}

func TestComputeRootDetectsTampering(t *testing.T) {
	h := hashing.New(nil)
	n := 20
	leaves := mkLeaves(n, 5)
	f := new(Forest)
	tree := build(h, f, leaves, nil)
	want := f.Digest(tree)
	lo, hi := 4, 9
	proof, _ := rangeProof(f, tree, lo, hi, nil)
	rng := leaves[lo : hi+1]

	// Tampered leaf digest -> different root.
	bad := append([]hashing.Digest(nil), rng...)
	bad[2][0] ^= 1
	if root, err := verify.ComputeRoot(h, n, lo, bad, proof); err == nil && root == want {
		t.Error("tampered leaf digest still produced the correct root")
	}

	// Shifted position -> different root (or error).
	if root, err := verify.ComputeRoot(h, n, lo+1, rng, proof); err == nil && root == want {
		t.Error("shifted range still produced the correct root")
	}

	// Truncated proof -> error.
	short := verify.Proof{Hashes: proof.Hashes[:len(proof.Hashes)-1]}
	if _, err := verify.ComputeRoot(h, n, lo, rng, short); err == nil {
		t.Error("truncated proof accepted")
	}

	// Padded proof -> error.
	long := verify.Proof{Hashes: append(append([]hashing.Digest(nil), proof.Hashes...), hashing.Digest{})}
	if _, err := verify.ComputeRoot(h, n, lo, rng, long); err == nil {
		t.Error("padded proof accepted")
	}

	// A forged leaf count is undetectable only while the shape difference
	// hides inside proof-covered subtrees (see ComputeRoot's doc comment);
	// once the range includes the tree's tail, it must be caught.
	tailLo := n - 3
	tailProof, _ := rangeProof(f, tree, tailLo, n-1, nil)
	if root, err := verify.ComputeRoot(h, n+1, tailLo, leaves[tailLo:], tailProof); err == nil && root == want {
		t.Error("forged leaf count with in-range tail still produced the correct root")
	}
}

func TestComputeRootRejectsInvalidArgs(t *testing.T) {
	h := hashing.New(nil)
	leaves := mkLeaves(3, 1)
	if _, err := verify.ComputeRoot(h, 3, 0, nil, verify.Proof{}); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := verify.ComputeRoot(h, 3, 2, leaves[:2], verify.Proof{}); err == nil {
		t.Error("range past end accepted")
	}
	if _, err := verify.ComputeRoot(h, 0, 0, leaves[:1], verify.Proof{}); err == nil {
		t.Error("zero leaf count accepted")
	}
	// A start near the int limit must not wrap the range's end below the
	// leaf count: the replay would then hash no leaf and return the first
	// proof digest as the root.
	if _, err := verify.ComputeRoot(h, 3, math.MaxInt, leaves[:2], verify.Proof{Hashes: leaves[:1]}); err == nil {
		t.Error("wrapped range start accepted")
	}
}

func TestRangeProofSizeLogarithmic(t *testing.T) {
	n := 4096
	f := new(Forest)
	tree := build(hashing.New(nil), f, mkLeaves(n, 21), nil)
	proof, err := rangeProof(f, tree, 2000, 2002, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two boundary paths of <= log2(4096) = 12 digests each.
	if len(proof.Hashes) > 26 {
		t.Errorf("proof for 3 of %d leaves has %d digests; want O(log n)", n, len(proof.Hashes))
	}
}

func TestRangeProofCountsTraversal(t *testing.T) {
	f := new(Forest)
	tree := build(hashing.New(nil), f, mkLeaves(64, 2), nil)
	var ctr metrics.Counter
	if _, err := rangeProof(f, tree, 10, 12, &ctr); err != nil {
		t.Fatal(err)
	}
	if ctr.NodesVisited == 0 {
		t.Error("RangeProof should count visited nodes")
	}
}

// TestNodeCountDedup: a derived tree costs the forest only its new rows.
func TestNodeCountDedup(t *testing.T) {
	h := hashing.New(nil)
	f := new(Forest)
	tree := build(h, f, mkLeaves(8, 3), nil)
	if got := f.Len(); got != 15 {
		t.Errorf("Len = %d, want 15", got)
	}
	swapLeaves(h, f, tree, 0)
	// Swap at 0 touches the two leaves' shared path: leaves 0,1 share a
	// parent, so new rows are 2 leaves + 3 ancestors = 5.
	if got := f.Len(); got != 20 {
		t.Errorf("forest has %d rows, want 20", got)
	}
}

// TestLeavesNameTheirRecords: the record index is part of the leaf — it is
// read back by position and by range, a swap carries it with the digest,
// an untagged build names nothing — and it costs the row no space.
func TestLeavesNameTheirRecords(t *testing.T) {
	// Digest, two child slots and the width: the record rides in a leaf's
	// right slot.
	if RowSize != hashing.Size+12 {
		t.Fatalf("a row is %d bytes, want %d", RowSize, hashing.Size+12)
	}
	h := hashing.New(nil)
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 7, 16, 33} {
		leaves := mkLeaves(n, int64(n))
		want := rng.Perm(n)
		recs := make([]int32, n)
		for i, r := range want {
			recs[i] = int32(r)
		}
		f := new(Forest)
		tree := build(h, f, leaves, recs)
		for step := 0; step < 3*n; step++ {
			if n > 1 {
				i := rng.Intn(n - 1)
				tree = swapLeaves(h, f, tree, i)
				want[i], want[i+1] = want[i+1], want[i]
				leaves[i], leaves[i+1] = leaves[i+1], leaves[i]
			}
			for i, r := range want {
				if got := f.Rec(leaf(f, tree, i)); got != r {
					t.Fatalf("n=%d: leaf %d names %d, want %d", n, i, got, r)
				}
			}
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo)
			if got := records(f, tree, lo, hi); !slices.Equal(got, want[lo:hi+1]) {
				t.Fatalf("n=%d: leaves %d..%d name %v, want %v", n, lo, hi, got, want[lo:hi+1])
			}
		}
		if f.Digest(tree) != f.Digest(build(h, f, leaves, nil)) {
			t.Fatalf("n=%d: the record index changed the root digest", n)
		}
		if u := build(h, f, leaves, nil); f.Rec(leaf(f, u, n-1)) != NoRecord {
			t.Fatalf("n=%d: an untagged leaf names record %d", n, f.Rec(leaf(f, u, n-1)))
		}
	}
}

// TestAppendRebases: two forests built apart and joined are the forest
// built in one, row for row.
func TestAppendRebases(t *testing.T) {
	h := hashing.New(nil)
	one, a, b := new(Forest), new(Forest), new(Forest)
	for i, f := range []*Forest{a, a, b, b, b} {
		leaves := mkLeaves(3+i, int64(i))
		build(h, one, leaves, nil)
		build(h, f, leaves, nil)
	}
	if shift := a.Append(b); shift != 12 || !slices.Equal(a.Rows(), one.Rows()) {
		t.Fatalf("joined forests differ from the one-table build (shift %d)", shift)
	}
}

// fresh is the root digest of a tree built over leaves on its own.
func fresh(h *hashing.Hasher, leaves []hashing.Digest) hashing.Digest {
	f := new(Forest)
	return f.Digest(build(h, f, leaves, nil))
}

// rangeProof is RangeProof into a fresh proof.
func rangeProof(f *Forest, root uint32, lo, hi int, ctr *metrics.Counter) (verify.Proof, error) {
	var p verify.Proof
	err := f.RangeProof(&p, root, lo, hi, ctr)
	return p, err
}

// records reads leaves [lo, hi], one descent each.
func records(f *Forest, root uint32, lo, hi int) []int {
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, f.Rec(leaf(f, root, i)))
	}
	return out
}
