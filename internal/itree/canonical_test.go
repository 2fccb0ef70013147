package itree

import (
	"context"
	"math/rand"
	"testing"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/workload"
)

// sameTree asserts two trees are structurally identical: same node
// shape, same representative intersections (indexes and hyperplane
// bytes), same leaf intervals including strictness flags, and same
// subdomain IDs — and that each numbers its subdomains left to right:
// Subs[i] has ID i, and Subs ascends strictly by interval start.
func sameTree(t *testing.T, a, b *Tree) {
	t.Helper()
	if a.NodeCount != b.NodeCount {
		t.Fatalf("node count %d vs %d", a.NodeCount, b.NodeCount)
	}
	if a.Inserted != b.Inserted {
		t.Fatalf("inserted %d vs %d", a.Inserted, b.Inserted)
	}
	if len(a.Subs) != len(b.Subs) {
		t.Fatalf("subdomain count %d vs %d", len(a.Subs), len(b.Subs))
	}
	for _, tr := range []*Tree{a, b} {
		for i, s := range tr.Subs {
			if s.ID != i {
				t.Fatalf("Subs[%d] has ID %d", i, s.ID)
			}
			if i > 0 && tr.Subs[i-1].Region.(Interval1D).LoRat().Cmp(s.Region.(Interval1D).LoRat()) >= 0 {
				t.Fatalf("Subs[%d] does not start right of Subs[%d]", i, i-1)
			}
		}
	}
	var walk func(path string, x, y *Node)
	walk = func(path string, x, y *Node) {
		if x.IsLeaf() != y.IsLeaf() {
			t.Fatalf("%s: leaf %v vs %v", path, x.IsLeaf(), y.IsLeaf())
		}
		if x.IsLeaf() {
			ix := x.Leaf.Region.(Interval1D)
			iy := y.Leaf.Region.(Interval1D)
			if ix.LoRat().Cmp(iy.LoRat()) != 0 || ix.HiRat().Cmp(iy.HiRat()) != 0 ||
				ix.LoStrict != iy.LoStrict || ix.HiStrict != iy.HiStrict {
				t.Fatalf("%s: leaf interval %+v vs %+v", path, ix, iy)
			}
			if x.Leaf.ID != y.Leaf.ID {
				t.Fatalf("%s: leaf ID %d vs %d", path, x.Leaf.ID, y.Leaf.ID)
			}
			return
		}
		if x.Int.I != y.Int.I || x.Int.J != y.Int.J {
			t.Fatalf("%s: node pair (%d,%d) vs (%d,%d)", path, x.Int.I, x.Int.J, y.Int.I, y.Int.J)
		}
		ex, ey := x.Int.H.Encode(nil), y.Int.H.Encode(nil)
		if string(ex) != string(ey) {
			t.Fatalf("%s: node hyperplane bytes differ", path)
		}
		walk(path+"/a", x.Above, y.Above)
		walk(path+"/b", x.Below, y.Below)
	}
	walk("root", a.Root, b.Root)
}

// randomLines generates n univariate lines, with clusters of parallel
// lines and lines concurrent through shared points so duplicate
// breakpoints and degenerate pairs are exercised.
func randomLines(n int, seed int64) []funcs.Linear {
	rng := rand.New(rand.NewSource(seed))
	fs := make([]funcs.Linear, n)
	for i := range fs {
		switch rng.Intn(4) {
		case 0: // parallel family: same slope, different bias
			fs[i] = funcs.Linear{Coef: []float64{2}, Bias: float64(rng.Intn(6))}
		case 1: // concurrent family: all pass through (1, 3)
			sl := float64(rng.Intn(7) - 3)
			fs[i] = funcs.Linear{Coef: []float64{sl}, Bias: 3 - sl}
		default:
			fs[i] = funcs.Linear{Coef: []float64{rng.NormFloat64() * 3}, Bias: rng.NormFloat64() * 2}
		}
		fs[i].Index = i
	}
	return fs
}

// bothWays builds the tree of one (sub-)domain by canonical-order
// insertion and directly from the arrangement, asserts the two are the
// same tree, and returns it.
func bothWays(t *testing.T, dom geometry.Box, inters []Intersection, seed int64) *Tree {
	t.Helper()
	space, err := NewSpace1D(dom)
	if err != nil {
		t.Fatal(err)
	}
	viaInsert := Build(space, inters, seed)
	arr := NewArrangement1D(space, inters, seed)
	direct := BuildCanonical1D(space, arr)
	sameTree(t, viaInsert, direct)
	return direct
}

// TestBuildCanonicalEqualsInsert is the construction's keystone: the
// direct Cartesian construction from the arrangement — the only way a
// univariate tree is built — must reproduce the insert-path canonical
// tree exactly, treap uniqueness in action, across random inputs with
// duplicate breakpoints, concurrent crossing points and out-of-domain
// intersections, and on forced ties and edges: three lines through one
// point, a breakpoint exactly on each domain edge, and one exactly on a
// shard cut (interior to the whole domain, on the edge of both
// sub-boxes, where neither sub-box's enumeration lists it).
func TestBuildCanonicalEqualsInsert(t *testing.T) {
	dom, err := geometry.NewBox([]float64{-1}, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		fs := randomLines(30+trial, int64(trial))
		inters, err := Pairs1DCtx(context.Background(), fs, dom)
		if err != nil {
			t.Fatal(err)
		}
		bothWays(t, dom, inters, int64(trial*7))
	}

	const cut = 0.5
	fs := lines(
		// Three lines through (1, 3).
		[2]float64{1, 2}, [2]float64{-2, 5}, [2]float64{3, 0},
		// A crossing exactly on the lower domain edge, one on the upper.
		[2]float64{1, 5}, [2]float64{-1, 3},
		[2]float64{0.5, 9}, [2]float64{-0.5, 11},
		// Three lines through (cut, 0.5).
		[2]float64{1, 0}, [2]float64{-1, 1}, [2]float64{2, -0.5},
	)
	for seed := int64(0); seed < 4; seed++ {
		inters, err := Pairs1DCtx(context.Background(), fs, dom)
		if err != nil {
			t.Fatal(err)
		}
		whole := bothWays(t, dom, inters, seed)
		hasBoundary := func(tree *Tree, x float64) bool {
			for _, b := range boundaries1D(t, tree) {
				if f, exact := b.Float64(); exact && f == x {
					return true
				}
			}
			return false
		}
		if !hasBoundary(whole, 1) || !hasBoundary(whole, cut) {
			t.Fatal("the concurrent crossing points are not boundaries of the whole-domain tree")
		}
		if hasBoundary(whole, -1) || hasBoundary(whole, 2) {
			t.Fatal("a crossing on a domain edge split the domain")
		}
		inserted := 0
		for k, box := range []geometry.Box{
			geometry.MustBox([]float64{-1}, []float64{cut}),
			geometry.MustBox([]float64{cut}, []float64{2}),
		} {
			own, err := Pairs1DCtx(context.Background(), fs, box)
			if err != nil {
				t.Fatal(err)
			}
			sub := bothWays(t, box, own, seed+int64(k))
			if hasBoundary(sub, cut) {
				t.Fatalf("shard %d: the crossing on the cut split the sub-box", k)
			}
			inserted += sub.Inserted
		}
		if inserted != whole.Inserted-1 {
			t.Fatalf("shards hold %d breakpoints, want the whole domain's %d minus the one on the cut", inserted, whole.Inserted)
		}
	}
}

// TestBuildCanonical1DAllocs: the direct construction numbers each leaf
// by its gap and sorts nothing, so its allocations stay a small constant
// per breakpoint — a sort of the leaves by exact interval start would
// add dozens, through big.Rat comparisons. The arrangement is the
// republish benchmark's table shape: 2 000 lines.
func TestBuildCanonical1DAllocs(t *testing.T) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := funcs.AffineLine(0, 1).InterpretTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	space, err := NewSpace1D(dom)
	if err != nil {
		t.Fatal(err)
	}
	inters, err := Pairs1DCtx(context.Background(), fs, dom)
	if err != nil {
		t.Fatal(err)
	}
	arr := NewArrangement1D(space, inters, 1)
	allocs := testing.AllocsPerRun(3, func() {
		BuildCanonical1D(space, arr)
	})
	if per := allocs / float64(arr.NumBreakpoints()); per > 4 {
		t.Errorf("%.0f allocations for %d breakpoints: %.1f per breakpoint, want at most 4", allocs, arr.NumBreakpoints(), per)
	}
}

// TestNewArrangement1DAllocs: the arrangement decides every order on the
// rounded breakpoints and builds a big.Rat only for two equal floats,
// and it keeps its members and groups in slabs, so its allocations stay
// a small constant per intersection — building an exact breakpoint for
// every intersection, as it once did, costs over twenty. The table is
// the republish benchmark's shape: 2 000 lines, 4 821 crossings.
func TestNewArrangement1DAllocs(t *testing.T) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := funcs.AffineLine(0, 1).InterpretTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	space, err := NewSpace1D(dom)
	if err != nil {
		t.Fatal(err)
	}
	inters, err := Pairs1DCtx(context.Background(), fs, dom)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		NewArrangement1D(space, inters, 1)
	})
	if per := allocs / float64(len(inters)); per > 5 {
		t.Errorf("%.0f allocations for %d intersections: %.1f per intersection, want at most 5", allocs, len(inters), per)
	}
}
