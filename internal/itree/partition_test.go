package itree

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
)

// TestPairsPartition1DOnCut pins the boundary rule the shard subsystem
// depends on: an intersection whose breakpoint lies exactly on a cut
// lands in exactly one bucket — the sub-box on the cut's right — never
// both, never neither.
func TestPairsPartition1DOnCut(t *testing.T) {
	dom := geometry.MustBox([]float64{0}, []float64{4})
	// f0 = x and f1 = -x + 4 cross at exactly x = 2, the cut.
	fs := []funcs.Linear{
		{Coef: []float64{1}, Bias: 0},
		{Coef: []float64{-1}, Bias: 4},
	}
	buckets, err := PairsPartition1D(fs, dom, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 2 {
		t.Fatalf("got %d buckets, want 2", len(buckets))
	}
	if len(buckets[0]) != 0 {
		t.Errorf("on-cut intersection leaked into the left bucket: %v", buckets[0])
	}
	if len(buckets[1]) != 1 {
		t.Fatalf("right bucket has %d intersections, want exactly 1", len(buckets[1]))
	}
	if in := buckets[1][0]; in.I != 0 || in.J != 1 {
		t.Errorf("right bucket owns pair (%d,%d), want (0,1)", in.I, in.J)
	}
}

// TestPairsPartition1DExactlyOnce checks, over random function sets,
// that the buckets partition exactly the set Pairs1D enumerates — every
// in-domain intersection in exactly one bucket (no drop, no double
// count) — and that each pair's exact rational breakpoint lies inside
// its owning sub-box's half-open range.
func TestPairsPartition1DExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dom := geometry.MustBox([]float64{-1}, []float64{1})
	cuts := []float64{-0.5, 0, 0.25}
	for trial := 0; trial < 20; trial++ {
		fs := make([]funcs.Linear, 40)
		for i := range fs {
			fs[i] = funcs.Linear{
				Coef: []float64{rng.NormFloat64()},
				Bias: rng.NormFloat64(),
			}
		}
		// A few engineered crossings exactly on cuts: f and its
		// reflection around x = c cross precisely at c.
		for _, c := range cuts {
			fs = append(fs,
				funcs.Linear{Coef: []float64{1}, Bias: -c},
				funcs.Linear{Coef: []float64{-1}, Bias: c})
		}

		buckets, err := PairsPartition1D(fs, dom, cuts)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := Pairs1D(fs, dom)
		if err != nil {
			t.Fatal(err)
		}

		type key struct{ i, j int }
		seen := make(map[key]int)
		for k, b := range buckets {
			for _, in := range b {
				kk := key{in.I, in.J}
				if prev, dup := seen[kk]; dup {
					t.Fatalf("pair (%d,%d) in buckets %d and %d", in.I, in.J, prev, k)
				}
				seen[kk] = k
			}
		}
		if len(seen) != len(flat) {
			t.Fatalf("buckets hold %d pairs, Pairs1D enumerates %d", len(seen), len(flat))
		}
		for _, in := range flat {
			if _, ok := seen[key{in.I, in.J}]; !ok {
				t.Fatalf("pair (%d,%d) dropped from every bucket", in.I, in.J)
			}
		}

		// Exact half-open ownership: edges[k] <= breakpoint < edges[k+1],
		// except within the outer-margin slack at the domain ends.
		edges := make([]*big.Rat, 0, len(cuts)+2)
		edges = append(edges, new(big.Rat).SetFloat64(dom.Lo[0]))
		for _, c := range cuts {
			edges = append(edges, new(big.Rat).SetFloat64(c))
		}
		edges = append(edges, new(big.Rat).SetFloat64(dom.Hi[0]))
		for k, b := range buckets {
			for _, in := range b {
				bp, ok := Breakpoint1D(in.H)
				if !ok {
					t.Fatalf("bucket %d pair (%d,%d) has no breakpoint", k, in.I, in.J)
				}
				interior := bp.Cmp(edges[0]) > 0 && bp.Cmp(edges[len(edges)-1]) < 0
				if !interior {
					continue // outer-margin slack; pruned exactly at insertion
				}
				if k > 0 && bp.Cmp(edges[k]) < 0 {
					t.Errorf("bucket %d pair (%d,%d): breakpoint %v left of its sub-box", k, in.I, in.J, bp)
				}
				if bp.Cmp(edges[k+1]) >= 0 && k+1 < len(buckets) {
					t.Errorf("bucket %d pair (%d,%d): breakpoint %v at or right of the next cut", k, in.I, in.J, bp)
				}
			}
		}
	}
}

// TestPairsPartition1DValidation rejects malformed cut lists.
func TestPairsPartition1DValidation(t *testing.T) {
	dom := geometry.MustBox([]float64{0}, []float64{1})
	fs := []funcs.Linear{{Coef: []float64{1}, Bias: 0}}
	for _, cuts := range [][]float64{{0}, {1}, {-0.5}, {0.5, 0.5}, {0.7, 0.3}} {
		if _, err := PairsPartition1D(fs, dom, cuts); err == nil {
			t.Errorf("cuts %v accepted", cuts)
		}
	}
	if _, err := PairsPartition1D(fs, geometry.MustBox([]float64{0, 0}, []float64{1, 1}), nil); err == nil {
		t.Error("2-D domain accepted")
	}
}

// TestPairsPartition1DWorkersIdentity is the byte-identity contract of
// the sharded enumeration: for every worker count the buckets — contents
// and order within each bucket — must equal the serial scan's exactly:
// the determinism every stage downstream inherits.
func TestPairsPartition1DWorkersIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dom := geometry.MustBox([]float64{-1}, []float64{1})
	fs := make([]funcs.Linear, 120)
	for i := range fs {
		fs[i] = funcs.Linear{Index: i, Coef: []float64{rng.NormFloat64()}, Bias: rng.NormFloat64()}
	}
	for _, cuts := range [][]float64{nil, {-0.4, 0.1, 0.3}} {
		serial, err := PairsPartition1DCtx(context.Background(), fs, dom, cuts, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			par, err := PairsPartition1DCtx(context.Background(), fs, dom, cuts, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(par) != len(serial) {
				t.Fatalf("workers=%d: %d buckets, want %d", workers, len(par), len(serial))
			}
			for k := range serial {
				if len(par[k]) != len(serial[k]) {
					t.Fatalf("workers=%d bucket %d: %d pairs, want %d", workers, k, len(par[k]), len(serial[k]))
				}
				for p := range serial[k] {
					a, b := serial[k][p], par[k][p]
					if a.I != b.I || a.J != b.J || a.H.B != b.H.B || a.H.C[0] != b.H.C[0] {
						t.Fatalf("workers=%d bucket %d pair %d differs: %+v vs %+v", workers, k, p, a, b)
					}
				}
			}
		}
	}
}

// TestPairsPartition1DCtxCanceled: a pre-canceled context aborts the
// scan and surfaces context.Canceled.
func TestPairsPartition1DCtxCanceled(t *testing.T) {
	dom := geometry.MustBox([]float64{-1}, []float64{1})
	fs := make([]funcs.Linear, 64)
	rng := rand.New(rand.NewSource(3))
	for i := range fs {
		fs[i] = funcs.Linear{Index: i, Coef: []float64{rng.NormFloat64()}, Bias: rng.NormFloat64()}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PairsPartition1DCtx(ctx, fs, dom, nil, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPartitionInters1DMatchesFusedScan pins the re-bucketing contract:
// partitioning a precomputed whole-domain enumeration by cuts must yield
// exactly the buckets the fused enumerate-and-bucket scan produces —
// contents and order — including pairs crossing exactly on a cut and
// within float-margin of one. The build plane relies on this to share
// one O(n²) scan between its cut planner and the shard build.
func TestPartitionInters1DMatchesFusedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dom := geometry.MustBox([]float64{-1}, []float64{1})
	cuts := []float64{-0.5, 0, 0.25}
	fs := make([]funcs.Linear, 80)
	for i := range fs {
		fs[i] = funcs.Linear{Index: i, Coef: []float64{rng.NormFloat64()}, Bias: rng.NormFloat64()}
	}
	// Engineered crossings exactly on each cut (f and its reflection
	// around x = c cross precisely at c).
	for _, c := range cuts {
		fs = append(fs,
			funcs.Linear{Coef: []float64{1}, Bias: -c},
			funcs.Linear{Coef: []float64{-1}, Bias: c})
	}
	fused, err := PairsPartition1D(fs, dom, cuts)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Pairs1D(fs, dom)
	if err != nil {
		t.Fatal(err)
	}
	rebucketed, err := PartitionInters1D(flat, dom, cuts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rebucketed) != len(fused) {
		t.Fatalf("%d buckets, want %d", len(rebucketed), len(fused))
	}
	for k := range fused {
		if len(rebucketed[k]) != len(fused[k]) {
			t.Fatalf("bucket %d: %d pairs, want %d", k, len(rebucketed[k]), len(fused[k]))
		}
		for p := range fused[k] {
			a, b := fused[k][p], rebucketed[k][p]
			if a.I != b.I || a.J != b.J || a.H.B != b.H.B || a.H.C[0] != b.H.C[0] {
				t.Fatalf("bucket %d pair %d differs: %+v vs %+v", k, p, a, b)
			}
		}
	}
}
