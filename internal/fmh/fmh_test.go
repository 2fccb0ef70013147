package fmh

import (
	"math/rand"
	"slices"
	"testing"

	"aqverify/internal/hashing"
	"aqverify/internal/metrics"
	"aqverify/internal/mhtree"
	"aqverify/internal/record"
)

// testList builds an FMH list over n synthetic records and returns the
// list plus each record's leaf digest by position.
func testList(t *testing.T, h *hashing.Hasher, n int, seed int64) (*List, []hashing.Digest) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	leafD := make([]hashing.Digest, n)
	for p := range leafD {
		rec := record.Record{ID: uint64(p + 1), Attrs: []float64{rng.NormFloat64()}}
		leafD[p] = h.Leaf(h.Record(rec))
	}
	l, err := Build(h, identity(n), func(rec int) hashing.Digest { return leafD[rec] })
	if err != nil {
		t.Fatal(err)
	}
	return l, leafD
}

// identity is the sorted order of a list whose record p sits at position p.
func identity(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

func TestBuildShape(t *testing.T) {
	h := hashing.New(nil)
	l, _ := testList(t, h, 5, 1)
	if l.LeafCount() != 7 {
		t.Errorf("LeafCount = %d, want 7 (5 records + 2 sentinels)", l.LeafCount())
	}
	if l.Tree.LeafCount() != 7 {
		t.Errorf("tree leaves = %d", l.Tree.LeafCount())
	}
	// Sentinel leaves occupy the ends.
	if l.Tree.Leaf(0) != h.SentinelMin(5) {
		t.Error("leaf 0 is not the min sentinel")
	}
	if l.Tree.Leaf(6) != h.SentinelMax(5) {
		t.Error("last leaf is not the max sentinel")
	}
}

func TestBuildEmptyList(t *testing.T) {
	h := hashing.New(nil)
	l, err := Build(h, nil, func(int) hashing.Digest { panic("no records") })
	if err != nil {
		t.Fatal(err)
	}
	if l.LeafCount() != 2 {
		t.Errorf("empty list LeafCount = %d, want 2 sentinels", l.LeafCount())
	}
	if got, err := l.Window(nil, 0, 0); err != nil || len(got) != 2 || got[0] != mhtree.NoRecord || got[1] != mhtree.NoRecord {
		t.Errorf("empty list window = %v, %v; want the two sentinels", got, err)
	}
}

func TestRootBindsLength(t *testing.T) {
	h := hashing.New(nil)
	l5, d5 := testList(t, h, 5, 3)
	// Same record digests, different claimed length -> different root
	// (sentinels bind n).
	l5b, err := Build(h, identity(5), func(rec int) hashing.Digest { return d5[rec] })
	if err != nil {
		t.Fatal(err)
	}
	if l5.Root() != l5b.Root() {
		t.Error("rebuild changed the root")
	}
}

func TestDeriveSwap(t *testing.T) {
	h := hashing.New(nil)
	n := 9
	l, leafD := testList(t, h, n, 4)
	for p := 0; p+1 < n; p++ {
		swapped, err := l.DeriveSwap(h, p)
		if err != nil {
			t.Fatalf("DeriveSwap(%d): %v", p, err)
		}
		want := identity(n)
		want[p], want[p+1] = want[p+1], want[p]
		fresh, err := Build(h, want, func(rec int) hashing.Digest { return leafD[rec] })
		if err != nil {
			t.Fatal(err)
		}
		if swapped.Root() != fresh.Root() {
			t.Fatalf("DeriveSwap(%d) root differs from fresh build", p)
		}
		if recordAt(swapped, p) != p+1 || recordAt(swapped, p+1) != p {
			t.Fatalf("DeriveSwap(%d) left the record indices behind", p)
		}
		// Sentinels must be untouched.
		if swapped.Tree.Leaf(0) != h.SentinelMin(n) || swapped.Tree.Leaf(n+1) != h.SentinelMax(n) {
			t.Fatalf("DeriveSwap(%d) disturbed a sentinel", p)
		}
	}
	if _, err := l.DeriveSwap(h, n-1); err == nil {
		t.Error("swap at last record position accepted (would swap with sentinel)")
	}
	if _, err := l.DeriveSwap(h, -1); err == nil {
		t.Error("negative swap accepted")
	}
}

func TestBoundaryProofRoundTrip(t *testing.T) {
	h := hashing.New(nil)
	n := 12
	l, leafD := testList(t, h, n, 5)
	for start := 0; start <= n; start++ {
		for count := 0; start+count <= n; count++ {
			proof, err := boundaryProof(l, start, count, nil)
			if err != nil {
				t.Fatalf("BoundaryProof(%d,%d): %v", start, count, err)
			}
			// Assemble verifier-side leaves: left boundary, window, right
			// boundary.
			leaves := make([]hashing.Digest, 0, count+2)
			if start == 0 {
				leaves = append(leaves, h.SentinelMin(n))
			} else {
				leaves = append(leaves, leafD[start-1])
			}
			for p := start; p < start+count; p++ {
				leaves = append(leaves, leafD[p])
			}
			if start+count == n {
				leaves = append(leaves, h.SentinelMax(n))
			} else {
				leaves = append(leaves, leafD[start+count])
			}
			root, err := ComputeRoot(h, n, start, leaves, proof)
			if err != nil {
				t.Fatalf("ComputeRoot(%d,%d): %v", start, count, err)
			}
			if root != l.Root() {
				t.Fatalf("window (%d,%d): recomputed root differs", start, count)
			}
		}
	}
}

func TestBoundaryProofRejectsBadWindow(t *testing.T) {
	h := hashing.New(nil)
	l, _ := testList(t, h, 5, 6)
	for _, w := range [][2]int{{-1, 1}, {0, 6}, {5, 1}, {2, -1}} {
		if _, err := boundaryProof(l, w[0], w[1], nil); err == nil {
			t.Errorf("BoundaryProof(%d,%d) accepted", w[0], w[1])
		}
	}
}

func TestVerifierDetectsWrongLength(t *testing.T) {
	h := hashing.New(nil)
	n := 8
	l, leafD := testList(t, h, n, 7)
	// Window ending at the max sentinel (a top-k shape): claiming a
	// different n changes the sentinel digest, so the forgery must fail.
	start, count := 5, 3
	proof, err := boundaryProof(l, start, count, nil)
	if err != nil {
		t.Fatal(err)
	}
	forgedN := n - 1
	leaves := []hashing.Digest{
		leafD[start-1], leafD[5], leafD[6], leafD[7],
		h.SentinelMax(forgedN),
	}
	root, err := ComputeRoot(h, forgedN, start, leaves, proof)
	if err == nil && root == l.Root() {
		t.Error("forged list length with max sentinel in range verified")
	}
}

func TestBoundaryProofCountsNodes(t *testing.T) {
	h := hashing.New(nil)
	l, _ := testList(t, h, 64, 8)
	var ctr metrics.Counter
	if _, err := boundaryProof(l, 30, 3, &ctr); err != nil {
		t.Fatal(err)
	}
	if ctr.NodesVisited == 0 {
		t.Error("BoundaryProof should count traversed nodes")
	}
}

func TestDeriveSwapChainMatchesFreshBuilds(t *testing.T) {
	// Simulate a subdomain sweep: repeatedly swap random adjacent pairs
	// and confirm each derived tree matches a from-scratch build.
	h := hashing.New(nil)
	n := 20
	l, leafD := testList(t, h, n, 9)
	perm := identity(n)
	rng := rand.New(rand.NewSource(10))
	cur := l
	for step := 0; step < 50; step++ {
		p := rng.Intn(n - 1)
		var err error
		cur, err = cur.DeriveSwap(h, p)
		if err != nil {
			t.Fatal(err)
		}
		perm[p], perm[p+1] = perm[p+1], perm[p]
		fresh, err := Build(h, perm, func(rec int) hashing.Digest { return leafD[rec] })
		if err != nil {
			t.Fatal(err)
		}
		if cur.Root() != fresh.Root() {
			t.Fatalf("step %d: derived root diverged from fresh build", step)
		}
		// The derived list is the sorted list: it reads back the order
		// by position and by window, sentinels naming no record.
		start := rng.Intn(n + 1)
		count := rng.Intn(n - start + 1)
		got, err := cur.Window(nil, start, count)
		if err != nil {
			t.Fatal(err)
		}
		want := append(append([]int{mhtree.NoRecord}, perm...), mhtree.NoRecord)[start : start+count+2]
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: Window(%d,%d) = %v, want %v", step, start, count, got, want)
		}
		if pos := rng.Intn(n); recordAt(cur, pos) != perm[pos] {
			t.Fatalf("step %d: position %d reads %d, want %d", step, pos, recordAt(cur, pos), perm[pos])
		}
	}
}

// boundaryProof is BoundaryProof into a fresh proof.
func boundaryProof(l *List, start, count int, ctr *metrics.Counter) (mhtree.Proof, error) {
	var p mhtree.Proof
	err := l.BoundaryProof(&p, start, count, ctr)
	return p, err
}

// recordAt reads position p by one root-to-leaf descent.
func recordAt(l *List, p int) int {
	r := l.Reader()
	return r.At(p)
}

// TestReaderIsTheDescent: a Reader that resumes its last path reads what
// a fresh reader's root-to-leaf descent reads, and what the list was
// built from, over random probe sequences — uniform jumps, binary
// searches, scans in both directions with repeats, and the sentinels —
// on lists of every shape up to a few hundred records.
func TestReaderIsTheDescent(t *testing.T) {
	h := hashing.New(nil)
	rng := rand.New(rand.NewSource(35))
	for n := 0; n <= 300; n += 1 + n/8 {
		perm := rng.Perm(n)
		l, err := Build(h, perm, func(rec int) hashing.Digest { return h.Leaf(hashing.Digest{byte(rec)}) })
		if err != nil {
			t.Fatal(err)
		}
		var probes []int
		for i := 0; i < 4*n; i++ {
			probes = append(probes, rng.Intn(n+2)-1)
		}
		for s := 0; s < 8; s++ {
			target := rng.Intn(n + 1)
			for lo, hi := 0, n; lo < hi; {
				mid := (lo + hi) / 2
				probes = append(probes, mid)
				if mid < target {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
		}
		for p := -1; p <= n; p++ {
			probes = append(probes, p, p)
		}
		for p := n; p >= -1; p-- {
			probes = append(probes, p)
		}
		rd := l.Reader()
		for _, p := range probes {
			want := mhtree.NoRecord
			if p >= 0 && p < n {
				want = perm[p]
			}
			if got, fresh := rd.At(p), recordAt(l, p); got != fresh || got != want {
				t.Fatalf("n=%d: position %d reads %d, a descent %d, the build %d", n, p, got, fresh, want)
			}
		}
	}
}
