package fmh

import (
	"math/rand"
	"slices"
	"testing"

	"aqverify/internal/hashing"
	"aqverify/internal/metrics"
	"aqverify/internal/mhtree"
	"aqverify/internal/record"
	"aqverify/internal/verify"
)

// testList builds an FMH list over n synthetic records and returns the
// list plus each record's leaf digest by position.
func testList(t *testing.T, h *hashing.Hasher, n int, seed int64) (List, []hashing.Digest) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	leafD := make([]hashing.Digest, n)
	for p := range leafD {
		rec := record.Record{ID: uint64(p + 1), Attrs: []float64{rng.NormFloat64()}}
		leafD[p] = h.Leaf(rec)
	}
	l := Build(h, new(mhtree.Forest), identity(n), leafD)
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
	if l.Forest.Width(l.Row) != 7 {
		t.Errorf("the tree has %d leaves, want 7 (5 records + 2 sentinels)", l.Forest.Width(l.Row))
	}
	// Sentinel leaves occupy the ends.
	if leafDigest(l, 0) != h.SentinelMin(5) {
		t.Error("leaf 0 is not the min sentinel")
	}
	if leafDigest(l, 6) != h.SentinelMax(5) {
		t.Error("last leaf is not the max sentinel")
	}
}

func TestBuildEmptyList(t *testing.T) {
	h := hashing.New(nil)
	l := Build(h, new(mhtree.Forest), nil, nil)
	if l.Forest.Width(l.Row) != 2 {
		t.Errorf("the empty list's tree has %d leaves, want 2 sentinels", l.Forest.Width(l.Row))
	}
	if got, err := l.Window(nil, 0, 0); err != nil || len(got) != 2 || got[0] != mhtree.NoRecord || got[1] != mhtree.NoRecord {
		t.Errorf("empty list window = %v, %v; want the two sentinels", got, err)
	}
}

func TestRootBindsLength(t *testing.T) {
	h := hashing.New(nil)
	l5, d5 := testList(t, h, 5, 3)
	// Same leaf digests, different claimed length -> different root
	// (sentinels bind n).
	l5b := Build(h, new(mhtree.Forest), identity(5), d5)
	if l5.Root() != l5b.Root() {
		t.Error("rebuild changed the root")
	}
}

// swap derives the list with the records at positions p and p+1
// exchanged, perm updated to match.
func swap(h *hashing.Hasher, l List, perm []int, leafD []hashing.Digest, p int) List {
	perm[p], perm[p+1] = perm[p+1], perm[p]
	return derive(h, l, []int{p, p + 1}, perm, leafD)
}

// derive is Derive with the new rows hashed.
func derive(h *hashing.Hasher, l List, at, perm []int, leafD []hashing.Digest) List {
	from := uint32(l.Forest.Len())
	l = l.Derive(at, perm, leafD)
	l.Forest.Hash(h, from)
	return l
}

func TestDeriveSwap(t *testing.T) {
	h := hashing.New(nil)
	n := 9
	l, leafD := testList(t, h, n, 4)
	for p := 0; p+1 < n; p++ {
		want := identity(n)
		swapped := swap(h, l, want, leafD, p)
		fresh := Build(h, new(mhtree.Forest), want, leafD)
		if swapped.Root() != fresh.Root() {
			t.Fatalf("swap at %d: root differs from fresh build", p)
		}
		if recordAt(swapped, p) != p+1 || recordAt(swapped, p+1) != p {
			t.Fatalf("swap at %d left the record indices behind", p)
		}
		// Sentinels must be untouched.
		if leafDigest(swapped, 0) != h.SentinelMin(n) || leafDigest(swapped, n+1) != h.SentinelMax(n) {
			t.Fatalf("swap at %d disturbed a sentinel", p)
		}
		if recordAt(l, p) != p || recordAt(l, p+1) != p+1 {
			t.Fatalf("swap at %d changed the list it was derived from", p)
		}
	}
	for _, at := range [][]int{{n - 1, n}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("deriving positions %v (a sentinel's) accepted", at)
				}
			}()
			l.Derive(at, identity(n), leafD)
		}()
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
			root, err := verify.ComputeFMHRoot(h, n, start, leaves, proof)
			if err != nil {
				t.Fatalf("verify.ComputeFMHRoot(%d,%d): %v", start, count, err)
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
	root, err := verify.ComputeFMHRoot(h, forgedN, start, leaves, proof)
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
		// One to three overlapping adjacent swaps, derived in one pass.
		var at []int
		for k := rng.Intn(3); k >= 0; k-- {
			p := rng.Intn(n - 1)
			perm[p], perm[p+1] = perm[p+1], perm[p]
			at = append(at, p, p+1)
		}
		slices.Sort(at)
		cur = derive(h, cur, slices.Compact(at), perm, leafD)
		fresh := Build(h, new(mhtree.Forest), perm, leafD)
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
func boundaryProof(l List, start, count int, ctr *metrics.Counter) (verify.Proof, error) {
	var p verify.Proof
	err := l.BoundaryProof(&p, start, count, ctr)
	return p, err
}

// recordAt reads position p by one root-to-leaf descent.
func recordAt(l List, p int) int {
	r := l.Reader()
	return r.At(p)
}

// leafDigest reads leaf i's digest by one root-to-leaf descent.
func leafDigest(l List, i int) hashing.Digest {
	n := l.Row
	for w := l.Forest.Width(n); w > 1; {
		lc, rc := l.Forest.Children(n)
		if lw := verify.LeftWidth(w); i < lw {
			n, w = lc, lw
		} else {
			n, w, i = rc, w-lw, i-lw
		}
	}
	return l.Forest.Digest(n)
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
		leaves := make([]hashing.Digest, n)
		for rec := range leaves {
			leaves[rec] = h.Leaf(record.Record{ID: uint64(rec)})
		}
		l := Build(h, new(mhtree.Forest), perm, leaves)
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
