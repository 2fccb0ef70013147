package mhtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

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
		tree := Build(h, leaves, nil)
		if tree.LeafCount() != n {
			t.Fatalf("n=%d: LeafCount = %d", n, tree.LeafCount())
		}
		want := buildBottomUp(h, leaves)
		if tree.Root() != want {
			t.Fatalf("n=%d: recursive build root differs from pair-and-promote root", n)
		}
	}
}

func TestBuildEmpty(t *testing.T) {
	if Build(hashing.New(nil), nil, nil) != nil {
		t.Error("empty build should be nil")
	}
}

func TestBuildHashCount(t *testing.T) {
	var ctr metrics.Counter
	h := hashing.New(&ctr)
	Build(h, mkLeaves(33, 1), nil)
	if ctr.Hashes != 32 {
		t.Errorf("building 33 leaves used %d hashes, want 32 (w-1 internal nodes)", ctr.Hashes)
	}
}

func TestLeafAccess(t *testing.T) {
	h := hashing.New(nil)
	leaves := mkLeaves(13, 2)
	tree := Build(h, leaves, nil)
	for i, want := range leaves {
		if got := tree.Leaf(i); got != want {
			t.Fatalf("Leaf(%d) mismatch", i)
		}
	}
	got := tree.Leaves()
	for i := range leaves {
		if got[i] != leaves[i] {
			t.Fatalf("Leaves()[%d] mismatch", i)
		}
	}
}

func TestWithLeaf(t *testing.T) {
	h := hashing.New(nil)
	leaves := mkLeaves(10, 3)
	tree := Build(h, leaves, nil)
	var repl hashing.Digest
	repl[0] = 0xff
	for i := 0; i < 10; i++ {
		mod := WithLeaf(h, tree, i, repl, NoRecord)
		want := append([]hashing.Digest(nil), leaves...)
		want[i] = repl
		if mod.Root() != Build(h, want, nil).Root() {
			t.Fatalf("WithLeaf(%d) root differs from fresh build", i)
		}
		// Original is untouched (persistence).
		if tree.Leaf(i) != leaves[i] {
			t.Fatalf("WithLeaf(%d) mutated the original", i)
		}
	}
}

func TestSwapLeaves(t *testing.T) {
	h := hashing.New(nil)
	for _, n := range []int{2, 3, 5, 8, 11, 16} {
		leaves := mkLeaves(n, int64(n)*7)
		tree := Build(h, leaves, nil)
		for i := 0; i+1 < n; i++ {
			swapped := SwapLeaves(h, tree, i)
			want := append([]hashing.Digest(nil), leaves...)
			want[i], want[i+1] = want[i+1], want[i]
			if swapped.Root() != Build(h, want, nil).Root() {
				t.Fatalf("n=%d SwapLeaves(%d) root differs from fresh build", n, i)
			}
		}
	}
}

// twoWithLeaf is SwapLeaves as two root-path rewrites, the first of
// which the second partly discards: the reference the one-descent swap
// must reproduce node for node.
func twoWithLeaf(h *hashing.Hasher, n *Node, i int) *Node {
	a, b := n.leaf(i), n.leaf(i+1)
	return WithLeaf(h, WithLeaf(h, n, i, b.H, int(b.Rec)), i+1, a.H, int(a.Rec))
}

// sameTree reports whether a and b are the same tree node for node: a
// node of old must be shared by both (the same pointer), and a new one
// must agree in digest, width and record with new children alike.
func sameTree(a, b *Node, old map[*Node]bool) bool {
	if old[a] || old[b] {
		return a == b
	}
	if a == nil || b == nil {
		return a == b
	}
	return a.H == b.H && a.W == b.W && a.Rec == b.Rec && sameTree(a.L, b.L, old) && sameTree(a.R, b.R, old)
}

// newNodes counts the nodes of n that old does not hold.
func newNodes(n *Node, old map[*Node]bool) int {
	if n == nil || old[n] {
		return 0
	}
	return 1 + newNodes(n.L, old) + newNodes(n.R, old)
}

// TestSwapLeavesIsTwoWithLeaf holds the one-descent swap to the
// two-WithLeaf composition at every width and position — same digests,
// records and shared subtrees — and to its cost: the two new leaves plus
// one hashed node per node on the union of their root paths, the count
// ChangedNodes reads off the two trees.
func TestSwapLeavesIsTwoWithLeaf(t *testing.T) {
	var ctr metrics.Counter
	h, ref := hashing.New(&ctr), hashing.New(nil)
	rng := rand.New(rand.NewSource(26))
	for w := 2; w <= 300; w++ {
		recs := make([]int32, w)
		for i, r := range rng.Perm(w) {
			recs[i] = int32(r)
		}
		tree := Build(ref, mkLeaves(w, int64(w)), recs)
		old := make(map[*Node]bool, 2*w)
		var mark func(*Node)
		mark = func(n *Node) {
			if n != nil && !old[n] {
				old[n] = true
				mark(n.L)
				mark(n.R)
			}
		}
		mark(tree)
		for i := 0; i+1 < w; i++ {
			ctr = metrics.Counter{}
			got, want := SwapLeaves(h, tree, i), twoWithLeaf(ref, tree, i)
			if !sameTree(got, want, old) {
				t.Fatalf("w=%d i=%d: the swapped tree is not the two-WithLeaf tree node for node", w, i)
			}
			if got.Root() != want.Root() || !slices.Equal(got.Leaves(), want.Leaves()) ||
				!slices.Equal(records(got, 0, w-1), records(want, 0, w-1)) {
				t.Fatalf("w=%d i=%d: root, leaves or records differ", w, i)
			}
			made := newNodes(got, old)
			if made != ChangedNodes(tree, got) || made != newNodes(want, old) {
				t.Fatalf("w=%d i=%d: %d new nodes, ChangedNodes says %d, the reference keeps %d", w, i, made, ChangedNodes(tree, got), newNodes(want, old))
			}
			if int(ctr.Hashes) != made-2 {
				t.Fatalf("w=%d i=%d: %d hashes for %d new internal nodes", w, i, ctr.Hashes, made-2)
			}
		}
		// A 50-swap chain shares exactly what the reference's shares, and
		// its adjacent differences count its forest.
		got, want := []*Node{tree}, []*Node{tree}
		counted := 2*w - 1
		for k := 0; k < 50; k++ {
			i := rng.Intn(w - 1)
			got = append(got, SwapLeaves(h, got[k], i))
			want = append(want, twoWithLeaf(ref, want[k], i))
			if got[k+1].Root() != want[k+1].Root() || recordAt(got[k+1], i) != recordAt(want[k+1], i) {
				t.Fatalf("w=%d: chain step %d differs", w, k)
			}
			counted += ChangedNodes(got[k], got[k+1])
		}
		if g, r := CountForest(got), CountForest(want); g != r || g != counted {
			t.Fatalf("w=%d: the chain's forest has %d nodes, the reference's %d, ChangedNodes sums to %d", w, g, r, counted)
		}
	}
}

func TestPersistentSharingBoundsMemory(t *testing.T) {
	h := hashing.New(nil)
	n := 256
	base := Build(h, mkLeaves(n, 9), nil)
	roots := []*Node{base}
	cur := base
	derivations := 200
	for i := 0; i < derivations; i++ {
		cur = SwapLeaves(h, cur, i%(n-1))
		roots = append(roots, cur)
	}
	total := CountForest(roots)
	// A fresh build per derivation would cost (2n-1) * (derivations+1)
	// ≈ 102k nodes; sharing should stay well under a quarter of that.
	independent := (2*n - 1) * (derivations + 1)
	if total >= independent/4 {
		t.Errorf("persistent forest has %d nodes; expected far fewer than %d", total, independent)
	}
}

func TestRangeProofRoundTrip(t *testing.T) {
	h := hashing.New(nil)
	for _, n := range []int{1, 2, 3, 7, 8, 13, 32, 57} {
		leaves := mkLeaves(n, int64(n)*13)
		tree := Build(h, leaves, nil)
		for lo := 0; lo < n; lo++ {
			for hi := lo; hi < n; hi++ {
				proof, err := rangeProof(tree, lo, hi, nil)
				if err != nil {
					t.Fatalf("n=%d RangeProof(%d,%d): %v", n, lo, hi, err)
				}
				root, err := verify.ComputeRoot(h, n, lo, leaves[lo:hi+1], proof)
				if err != nil {
					t.Fatalf("n=%d verify.ComputeRoot(%d,%d): %v", n, lo, hi, err)
				}
				if root != tree.Root() {
					t.Fatalf("n=%d range [%d,%d]: recomputed root differs", n, lo, hi)
				}
			}
		}
	}
}

func TestRangeProofRejectsBadRange(t *testing.T) {
	h := hashing.New(nil)
	tree := Build(h, mkLeaves(5, 1), nil)
	for _, rg := range [][2]int{{-1, 2}, {0, 5}, {3, 2}} {
		if _, err := rangeProof(tree, rg[0], rg[1], nil); err == nil {
			t.Errorf("RangeProof(%d,%d) accepted", rg[0], rg[1])
		}
	}
}

func TestComputeRootDetectsTampering(t *testing.T) {
	h := hashing.New(nil)
	n := 20
	leaves := mkLeaves(n, 5)
	tree := Build(h, leaves, nil)
	lo, hi := 4, 9
	proof, _ := rangeProof(tree, lo, hi, nil)
	rng := leaves[lo : hi+1]

	// Tampered leaf digest -> different root.
	bad := append([]hashing.Digest(nil), rng...)
	bad[2][0] ^= 1
	if root, err := verify.ComputeRoot(h, n, lo, bad, proof); err == nil && root == tree.Root() {
		t.Error("tampered leaf digest still produced the correct root")
	}

	// Shifted position -> different root (or error).
	if root, err := verify.ComputeRoot(h, n, lo+1, rng, proof); err == nil && root == tree.Root() {
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
	tailProof, _ := rangeProof(tree, tailLo, n-1, nil)
	if root, err := verify.ComputeRoot(h, n+1, tailLo, leaves[tailLo:], tailProof); err == nil && root == tree.Root() {
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
	h := hashing.New(nil)
	n := 4096
	tree := Build(h, mkLeaves(n, 21), nil)
	proof, err := rangeProof(tree, 2000, 2002, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two boundary paths of <= log2(4096) = 12 digests each.
	if len(proof.Hashes) > 26 {
		t.Errorf("proof for 3 of %d leaves has %d digests; want O(log n)", n, len(proof.Hashes))
	}
}

func TestRangeProofCountsTraversal(t *testing.T) {
	h := hashing.New(nil)
	tree := Build(h, mkLeaves(64, 2), nil)
	var ctr metrics.Counter
	if _, err := rangeProof(tree, 10, 12, &ctr); err != nil {
		t.Fatal(err)
	}
	if ctr.NodesVisited == 0 {
		t.Error("RangeProof should count visited nodes")
	}
}

func TestNodeCountDedup(t *testing.T) {
	h := hashing.New(nil)
	tree := Build(h, mkLeaves(8, 3), nil)
	if got := tree.NodeCount(); got != 15 {
		t.Errorf("NodeCount = %d, want 15", got)
	}
	derived := SwapLeaves(h, tree, 0)
	// Swap at 0 touches the two leaves' shared path: leaves 0,1 share a
	// parent, so new nodes are 2 leaves + 3 ancestors = 5.
	if got := CountForest([]*Node{tree, derived}); got != 20 {
		t.Errorf("forest count = %d, want 20", got)
	}
}

// TestLeavesNameTheirRecords: the record index is part of the leaf — it is
// read back by position and by range, a swap carries it with the digest,
// an untagged build names nothing — and it costs the node no space.
func TestLeavesNameTheirRecords(t *testing.T) {
	// Digest, two children, and width + record packed into one word's
	// worth: 56 bytes on 64-bit, what the node was before it named a record.
	if sz, want := unsafe.Sizeof(Node{}), hashing.Size+2*unsafe.Sizeof(uintptr(0))+8; sz != want {
		t.Fatalf("Node is %d bytes, want %d", sz, want)
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
		tree := Build(h, leaves, recs)
		for step := 0; step < 3*n; step++ {
			if n > 1 {
				i := rng.Intn(n - 1)
				tree = SwapLeaves(h, tree, i)
				want[i], want[i+1] = want[i+1], want[i]
				leaves[i], leaves[i+1] = leaves[i+1], leaves[i]
			}
			for i, r := range want {
				if got := recordAt(tree, i); got != r {
					t.Fatalf("n=%d: leaf %d names %d, want %d", n, i, got, r)
				}
			}
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo)
			if got := records(tree, lo, hi); !slices.Equal(got, want[lo:hi+1]) {
				t.Fatalf("n=%d: leaves %d..%d name %v, want %v", n, lo, hi, got, want[lo:hi+1])
			}
		}
		if tree.Root() != Build(h, leaves, nil).Root() {
			t.Fatalf("n=%d: the record index changed the root digest", n)
		}
		if got := recordAt(Build(h, leaves, nil), n-1); got != NoRecord {
			t.Fatalf("n=%d: an untagged leaf names record %d", n, got)
		}
	}
}

// rangeProof is RangeProof into a fresh proof.
func rangeProof(n *Node, lo, hi int, ctr *metrics.Counter) (verify.Proof, error) {
	var p verify.Proof
	err := n.RangeProof(&p, lo, hi, ctr)
	return p, err
}

// recordAt reads leaf i by one root-to-leaf descent.
func recordAt(n *Node, i int) int { return int(n.leaf(i).Rec) }

// records reads leaves [lo, hi], one descent each.
func records(n *Node, lo, hi int) []int {
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, recordAt(n, i))
	}
	return out
}
