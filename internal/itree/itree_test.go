package itree

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/workload"
)

// lines builds univariate linear functions from (slope, intercept) pairs.
func lines(params ...[2]float64) []funcs.Linear {
	fs := make([]funcs.Linear, len(params))
	for i, p := range params {
		fs[i] = funcs.Linear{Index: i, RecordID: uint64(i + 1), Coef: []float64{p[0]}, Bias: p[1]}
	}
	return fs
}

func build1D(t *testing.T, fs []funcs.Linear, lo, hi float64, seed int64) *Tree {
	t.Helper()
	domain := geometry.MustBox([]float64{lo}, []float64{hi})
	space, err := NewSpace1D(domain)
	if err != nil {
		t.Fatal(err)
	}
	inters, err := Pairs1DCtx(context.Background(), fs, domain)
	if err != nil {
		t.Fatal(err)
	}
	tree := Build(space, inters, seed)
	return tree
}

// boundaries1D returns the S-1 interior breakpoints separating
// consecutive subdomains of a 1-D tree, ascending, and fails the test if
// two adjacent leaves do not share an endpoint.
func boundaries1D(t *testing.T, tree *Tree) []*big.Rat {
	t.Helper()
	out := make([]*big.Rat, 0, len(tree.Subs))
	for i := 0; i+1 < len(tree.Subs); i++ {
		cur := tree.Subs[i].Region.(Interval1D)
		next := tree.Subs[i+1].Region.(Interval1D)
		if cur.HiRat().Cmp(next.LoRat()) != 0 {
			t.Fatalf("leaves %d and %d do not abut (%v vs %v)", i, i+1, cur.HiRat(), next.LoRat())
		}
		out = append(out, cur.HiRat())
	}
	return out
}

func TestPaperFourLineExample(t *testing.T) {
	// Four pairwise-crossing lines (the shape of the paper's Fig 2a):
	// six intersections inside the domain partition it into seven
	// subdomains.
	fs := lines([2]float64{1, 0}, [2]float64{-1, 10}, [2]float64{0.5, 3.1}, [2]float64{-0.5, 8.3})
	tree := build1D(t, fs, -100, 100, 0)
	if got := len(tree.Subs); got != 7 {
		t.Fatalf("subdomains = %d, want 7", got)
	}
	if tree.Inserted != 6 {
		t.Errorf("inserted = %d, want 6", tree.Inserted)
	}
	// Node count: 6 internal + 7 leaves.
	if tree.NodeCount != 13 {
		t.Errorf("NodeCount = %d, want 13", tree.NodeCount)
	}
	bs := boundaries1D(t, tree)
	if len(bs) != 6 {
		t.Fatalf("boundaries = %d, want 6", len(bs))
	}
	for i := 1; i < len(bs); i++ {
		if bs[i-1].Cmp(bs[i]) >= 0 {
			t.Error("boundaries not strictly ascending")
		}
	}
}

func TestParallelLinesNoSplit(t *testing.T) {
	fs := lines([2]float64{1, 0}, [2]float64{1, 5}, [2]float64{1, -3})
	tree := build1D(t, fs, 0, 10, 0)
	if len(tree.Subs) != 1 {
		t.Fatalf("parallel lines should leave one subdomain, got %d", len(tree.Subs))
	}
}

func TestOutOfDomainIntersections(t *testing.T) {
	// Lines crossing at x=50, domain [0,10]: no split.
	fs := lines([2]float64{1, 0}, [2]float64{0, 50})
	tree := build1D(t, fs, 0, 10, 0)
	if len(tree.Subs) != 1 {
		t.Fatalf("out-of-domain intersection split the domain: %d subdomains", len(tree.Subs))
	}
}

func TestSearchFindsContainingSubdomain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var params [][2]float64
	for i := 0; i < 12; i++ {
		params = append(params, [2]float64{rng.NormFloat64(), rng.NormFloat64() * 5})
	}
	fs := lines(params...)
	tree := build1D(t, fs, -3, 3, 7)
	space := tree.Space
	for trial := 0; trial < 200; trial++ {
		x := geometry.Point{rng.Float64()*6 - 3}
		// The path's branch directions must match the hyperplane sides.
		sub := tree.Search(x, nil, func(n *Node, tookAbove bool) {
			if (n.Int.H.Side(x) >= 0) != tookAbove {
				t.Fatalf("path step direction inconsistent at %v", x)
			}
		})
		if !space.Contains(sub.Region, x) {
			t.Fatalf("Search(%v) returned subdomain not containing x", x)
		}
	}
}

func TestSearchCountsNodes(t *testing.T) {
	fs := lines([2]float64{1, 0}, [2]float64{-1, 2})
	tree := build1D(t, fs, 0, 10, 0)
	var ctr metrics.Counter
	tree.Search(geometry.Point{5}, &ctr, nil)
	if ctr.NodesVisited < 2 {
		t.Errorf("NodesVisited = %d, want >= 2", ctr.NodesVisited)
	}
}

func TestSubdomainOrderIsSpatial1D(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var params [][2]float64
	for i := 0; i < 20; i++ {
		params = append(params, [2]float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	tree := build1D(t, lines(params...), -2, 2, 11)
	for i, sub := range tree.Subs {
		if sub.ID != i {
			t.Fatalf("Subs[%d].ID = %d", i, sub.ID)
		}
	}
	// Intervals tile the domain left to right.
	boundaries1D(t, tree)
	first := tree.Subs[0].Region.(Interval1D)
	last := tree.Subs[len(tree.Subs)-1].Region.(Interval1D)
	if first.Lo != -2 || first.LoCut != nil {
		t.Errorf("first interval starts at %v, want the domain edge -2", first.Lo)
	}
	if last.Hi != 2 || last.HiCut != nil {
		t.Errorf("last interval ends at %v, want the domain edge 2", last.Hi)
	}
}

// TestSortabilityAcrossSubdomains is the core invariant: within one
// subdomain the function order is constant, and crossing a boundary
// changes it.
func TestSortabilityAcrossSubdomains(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var params [][2]float64
	for i := 0; i < 10; i++ {
		params = append(params, [2]float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	fs := lines(params...)
	tree := build1D(t, fs, -1, 1, 3)
	for _, sub := range tree.Subs {
		iv := sub.Region.(Interval1D)
		lo, hi := iv.Lo, iv.Hi
		w := (hi - lo)
		base := funcs.SortAt(fs, geometry.Point{lo + w*0.5})
		for _, frac := range []float64{0.1, 0.3, 0.7, 0.9} {
			got := funcs.SortAt(fs, geometry.Point{lo + w*frac})
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("subdomain %d: order changed inside the region", sub.ID)
				}
			}
		}
	}
}

// TestCanonicalDepthOnAscendingBreakpoints feeds the construction its
// worst enumeration: one flat line crossed by S parallel ones, its S
// breakpoints listed in ascending order, so inserting them as listed
// would grow a depth-S path. The canonical order ignores how
// the pairs enumerate; the depth stays within 4·log2 S for every seed
// tried, on the insert path and the direct construction alike.
func TestCanonicalDepthOnAscendingBreakpoints(t *testing.T) {
	const s = 1024
	params := [][2]float64{{0, 0}}
	for j := 1; j <= s; j++ {
		params = append(params, [2]float64{1, -float64(j)}) // crosses f0 at x = j
	}
	fs := lines(params...)
	domain := geometry.MustBox([]float64{0.5}, []float64{s + 0.5})
	space, err := NewSpace1D(domain)
	if err != nil {
		t.Fatal(err)
	}
	inters, err := Pairs1DCtx(context.Background(), fs, domain)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(inters, func(a, b Intersection) int {
		ta, _ := Breakpoint1D(a.H)
		tb, _ := Breakpoint1D(b.H)
		return ta.Cmp(tb)
	})
	if len(inters) != s {
		t.Fatalf("%d intersections, want %d", len(inters), s)
	}
	bound := 4 * int(math.Log2(s))
	for seed := int64(0); seed < 5; seed++ {
		arr := NewArrangement1D(space, inters, seed)
		direct := BuildCanonical1D(space, arr)
		if len(direct.Subs) != s+1 {
			t.Fatalf("seed %d: %d subdomains, want %d", seed, len(direct.Subs), s+1)
		}
		if d := direct.Depth(); d > bound {
			t.Errorf("seed %d: depth %d over %d breakpoints, want <= %d", seed, d, s, bound)
		}
	}
	if d := build1D(t, fs, 0.5, s+0.5, 0).Depth(); d > bound {
		t.Errorf("insert path: depth %d over %d breakpoints, want <= %d", d, s, bound)
	}
}

func TestBuildND(t *testing.T) {
	// Three planes over a 2-D box: f0 = x, f1 = y, f2 = (x+y)/2.
	fs := []funcs.Linear{
		{Index: 0, RecordID: 1, Coef: []float64{1, 0}},
		{Index: 1, RecordID: 2, Coef: []float64{0, 1}},
		{Index: 2, RecordID: 3, Coef: []float64{0.5, 0.5}},
	}
	domain := geometry.MustBox([]float64{0, 0}, []float64{1, 1})
	space, err := NewSpaceND(domain)
	if err != nil {
		t.Fatal(err)
	}
	inters := PairsND(fs)
	if len(inters) != 3 {
		t.Fatalf("PairsND = %d intersections, want 3", len(inters))
	}
	tree := Build(space, inters, 0)
	// f0-f1, f0-f2, f1-f2 all vanish on the diagonal x=y: the three
	// hyperplanes coincide, so only the first insertion splits.
	if len(tree.Subs) != 2 {
		t.Fatalf("subdomains = %d, want 2 (coincident hyperplanes)", len(tree.Subs))
	}
	// Search + order check on both sides.
	for _, x := range []geometry.Point{{0.8, 0.2}, {0.2, 0.8}} {
		sub := tree.Search(x, nil, nil)
		if !space.Contains(sub.Region, x) {
			t.Fatalf("Search(%v) wrong subdomain", x)
		}
	}
}

func TestBuildNDGrid(t *testing.T) {
	// Functions whose pairwise differences form crossing hyperplanes.
	fs := []funcs.Linear{
		{Index: 0, RecordID: 1, Coef: []float64{1, 0}, Bias: 0},
		{Index: 1, RecordID: 2, Coef: []float64{0, 1}, Bias: 0},
		{Index: 2, RecordID: 3, Coef: []float64{0, 0}, Bias: 0.5},
	}
	domain := geometry.MustBox([]float64{0, 0}, []float64{1, 1})
	space, _ := NewSpaceND(domain)
	tree := Build(space, PairsND(fs), 0)
	// x=y, x=0.5, y=0.5 inside the unit square: the diagonal plus the
	// two half-lines cut the square into 6 cells.
	if len(tree.Subs) != 6 {
		t.Fatalf("subdomains = %d, want 6", len(tree.Subs))
	}
	// Every subdomain's witness sorts consistently with nearby points.
	rng := rand.New(rand.NewSource(12))
	for _, sub := range tree.Subs {
		w := space.Witness(sub.Region)
		base := funcs.SortAt(fs, w)
		for k := 0; k < 5; k++ {
			p := geometry.Point{
				w[0] + rng.NormFloat64()*1e-4,
				w[1] + rng.NormFloat64()*1e-4,
			}
			if !space.Contains(sub.Region, p) {
				continue
			}
			got := funcs.SortAt(fs, p)
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("subdomain %d: order differs near witness", sub.ID)
				}
			}
		}
	}
}

func TestPairs1DFiltersAndValidates(t *testing.T) {
	fs := lines([2]float64{1, 0}, [2]float64{-1, 100}, [2]float64{-1, 2})
	domain := geometry.MustBox([]float64{0}, []float64{10})
	inters, err := Pairs1DCtx(context.Background(), fs, domain)
	if err != nil {
		t.Fatal(err)
	}
	// Crossings: f0/f1 at x=50 (out), f0/f2 at x=1 (in), f1/f2 parallel.
	if len(inters) != 1 {
		t.Fatalf("got %d intersections, want 1", len(inters))
	}
	if inters[0].I != 0 || inters[0].J != 2 {
		t.Errorf("kept pair (%d,%d), want (0,2)", inters[0].I, inters[0].J)
	}
	bad := []funcs.Linear{{Index: 0, Coef: []float64{1, 2}}}
	if _, err := Pairs1DCtx(context.Background(), bad, domain); err == nil {
		t.Error("multivariate function accepted by Pairs1D")
	}
	if _, err := Pairs1DCtx(context.Background(), fs, geometry.MustBox([]float64{0, 0}, []float64{1, 1})); err == nil {
		t.Error("2-D domain accepted by Pairs1D")
	}
}

// BenchmarkPairs1D times the owner's pair enumeration over the
// benchmark's 2 000-line table and the top of the paper's Fig 5 sweep.
//
//	go test ./internal/itree -run '^$' -bench Pairs1D -count 10
func BenchmarkPairs1D(b *testing.B) {
	for _, n := range []int{2000, 10000} {
		tbl, dom, err := workload.Lines(workload.LinesConfig{N: n, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		fs, err := funcs.AffineLine(0, 1).InterpretTable(tbl)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Pairs1DCtx(context.Background(), fs, dom); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSpaceNDSplitIsScaleInvariant holds SpaceND's split test to a
// distance: multiplying every attribute by 2^k scales each difference
// hyperplane by 2^k, and with the insertion order held at the scale-1
// canonical order (the canonical priority hashes the hyperplane's bytes,
// which scaling changes) every split must be decided alike — the same
// node count and a bit-identical witness in every leaf — in two and
// three dimensions.
func TestSpaceNDSplitIsScaleInvariant(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, n := range []int{8, 16} {
			for _, dist := range []workload.Distribution{workload.Uniform, workload.AntiCorrelated} {
				tbl, dom, err := workload.Points(workload.PointsConfig{N: n, Dim: dim, Seed: int64(10*dim + n), Dist: dist})
				if err != nil {
					t.Fatal(err)
				}
				fs, err := funcs.ScalarProduct(dim).InterpretTable(tbl)
				if err != nil {
					t.Fatal(err)
				}
				inters := PairsND(fs)
				order := canonicalOrder(inters, 0)
				base := insertInOrder(t, dom, inters, order)
				for _, k := range []int{-23, -17, -10, 10, 20} {
					scaled := make([]funcs.Linear, len(fs))
					for i, f := range fs {
						c := make([]float64, len(f.Coef))
						for a, v := range f.Coef {
							c[a] = math.Ldexp(v, k)
						}
						scaled[i] = funcs.Linear{Index: f.Index, RecordID: f.RecordID, Coef: c, Bias: math.Ldexp(f.Bias, k)}
					}
					got := insertInOrder(t, dom, PairsND(scaled), order)
					what := fmt.Sprintf("%dD n=%d %s scale 2^%d", dim, n, dist, k)
					if got.NodeCount != base.NodeCount || len(got.Subs) != len(base.Subs) {
						t.Fatalf("%s: %d nodes, %d subdomains; scale 1 has %d, %d", what, got.NodeCount, len(got.Subs), base.NodeCount, len(base.Subs))
					}
					for id := range got.Subs {
						if w, bw := got.Space.Witness(got.Subs[id].Region), base.Space.Witness(base.Subs[id].Region); !slices.Equal(w, bw) {
							t.Fatalf("%s: subdomain %d's witness is %v, at scale 1 %v", what, id, w, bw)
						}
					}
				}
			}
		}
	}
}

// insertInOrder builds the n-D I-tree over dom by inserting inters in
// the given order.
func insertInOrder(t *testing.T, dom geometry.Box, inters []Intersection, order []int) *Tree {
	t.Helper()
	space, err := NewSpaceND(dom)
	if err != nil {
		t.Fatal(err)
	}
	tree := &Tree{Space: space, Root: &Node{Leaf: &Subdomain{Region: space.Root()}}, NodeCount: 1}
	for _, k := range order {
		tree.insert(tree.Root, space.Root(), &inters[k])
	}
	tree.enumerate()
	return tree
}
