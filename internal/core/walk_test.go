package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"aqverify/internal/artifact"
	"aqverify/internal/build"
	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/itree"
	"aqverify/internal/mhtree"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
)

var walkSigner = func() sig.Signer {
	s, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		panic(err)
	}
	return s
}()

// quarterTable synthesizes n records whose attributes are multiples of
// 1/4 in [-2, 2]: few enough values that duplicate records (equal scores
// everywhere) and shared breakpoints are the rule, and — queried at
// dyadic inputs — every float score is exact, so the list order the
// owner computed in rationals is the order of the float scores and the
// brute-force window must match position for position.
func quarterTable(t testing.TB, n, arity int, seed int64) record.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cols := make([]record.Column, arity)
	for i := range cols {
		cols[i] = record.Column{Name: fmt.Sprintf("c%d", i)}
	}
	recs := make([]record.Record, n)
	for i := range recs {
		attrs := make([]float64, arity)
		for j := range attrs {
			attrs[j] = float64(rng.Intn(17)-8) / 4
		}
		recs[i] = record.Record{ID: uint64(i + 1), Attrs: attrs}
	}
	tbl, err := record.NewTable(record.Schema{Name: "quarters", Columns: cols}, recs)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func outsourceWalk(t testing.TB, spec build.Spec, opts ...build.Option) *build.Result {
	t.Helper()
	res, err := build.Outsource(context.Background(), spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// reopen round-trips a build through artifact.Save and artifact.Open.
func reopen(t testing.TB, res *build.Result) *core.Tree {
	t.Helper()
	dir := t.TempDir()
	if _, err := artifact.Save(dir, res); err != nil {
		t.Fatal(err)
	}
	art, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { art.Close() })
	return art.Result.Tree
}

// walkInputs returns function inputs worth asking a 1-D table about: the
// domain's two edges, a few dyadic interior points, and every in-domain
// dyadic breakpoint (where two records tie exactly and every float score
// is still exact).
func walkInputs(fs []funcs.Linear, dom geometry.Box) []geometry.Point {
	xs := []float64{dom.Lo[0], dom.Hi[0], 0, 0.125, -0.375, 0.8125}
	for i := range fs {
		for j := i + 1; j < len(fs) && len(xs) < 40; j++ {
			da := fs[i].Coef[0] - fs[j].Coef[0]
			if da == 0 {
				continue
			}
			x := (fs[j].Bias - fs[i].Bias) / da
			p := geometry.Point{x}
			if dom.Contains(p) && x == math.Round(x*64)/64 && !slices.Contains(xs, x) {
				xs = append(xs, x)
			}
		}
	}
	out := make([]geometry.Point, len(xs))
	for i, x := range xs {
		out[i] = geometry.Point{x}
	}
	return out
}

// walkQueries covers every kind at x against the sorted scores the brute
// force sees there: k below, at and above n; ranges that are empty,
// all-covering, and closed exactly on scores; kNN targets below and above
// every score, on a score, and exactly between two neighbors.
func walkQueries(x geometry.Point, scores []float64) []query.Query {
	n := len(scores)
	lo, hi := scores[0], scores[n-1]
	mid, midNext := scores[n/2], scores[min(n/2+1, n-1)]
	qs := []query.Query{
		query.NewRange(x, hi+100, hi+200),
		query.NewRange(x, lo-1, hi+1),
		query.NewRange(x, mid, mid),
		query.NewRange(x, lo, mid),
		query.NewRange(x, (mid+midNext)/2, hi),
	}
	for _, k := range []int{1, 3, n, n + 2} {
		qs = append(qs,
			query.NewTopK(x, k),
			query.NewBottomK(x, k),
			query.NewKNN(x, k, lo-1e6),
			query.NewKNN(x, k, hi+1e6),
			query.NewKNN(x, k, mid),
			query.NewKNN(x, k, (mid+midNext)/2),
		)
	}
	return qs
}

// checkWalk holds one Process answer to the brute force: the window
// query.Exec selects on the raw table, position for position (records
// tying exactly may swap within their tie, so those are compared by
// score), and the answer verifies.
func checkWalk(t *testing.T, tree *core.Tree, tpl funcs.Template, q query.Query) *verify.Answer {
	t.Helper()
	ans, err := tree.Process(q, nil)
	if err != nil {
		t.Fatalf("%+v: Process: %v", q, err)
	}
	want, err := query.Exec(tree.Table(), tpl, q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.VO.ListLen != tree.NumRecords() || ans.VO.Start != want.Window.Start || len(ans.Records) != want.Window.Count {
		t.Fatalf("%+v: window start=%d count=%d of %d, brute force %+v of %d",
			q, ans.VO.Start, len(ans.Records), ans.VO.ListLen, want.Window, tree.NumRecords())
	}
	for i, rec := range ans.Records {
		if got := tpl.Interpret(0, rec).Eval(q.X); got != want.Scores[i] {
			t.Fatalf("%+v: position %d scores %v (record %d), brute force %v (record %d)",
				q, i, got, rec.ID, want.Scores[i], want.Records[i].ID)
		}
	}
	if err := verify.Verify(tree.Public(), q, ans.Records, &ans.VO, nil); err != nil {
		t.Fatalf("%+v: honest answer rejected: %v", q, err)
	}
	return ans
}

// TestWalkIsTheBruteForce: the answer is defined by the brute-force
// computation, and the O(log n + k) walk that reads the window off the
// FMH-tree returns exactly it — for every way a list comes to be (the
// univariate sweep chain, loaded from an artifact, multivariate), both
// signing modes, and the edge cases of every kind. The built and the
// loaded univariate tree must also agree byte for byte on the wire.
func TestWalkIsTheBruteForce(t *testing.T) {
	dom1 := geometry.MustBox([]float64{-1}, []float64{1})
	line := funcs.AffineLine(0, 1)
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		for _, n := range []int{1, 2, 7, 200} {
			t.Run(fmt.Sprintf("1D/%v/n=%d", mode, n), func(t *testing.T) {
				tbl := quarterTable(t, n, 2, int64(n))
				spec := build.Spec{Table: tbl, Template: line, Domain: dom1, Signer: walkSigner}
				built := outsourceWalk(t, spec, build.WithMode(mode))
				trees := []*core.Tree{built.Tree, reopen(t, built)}
				fs, err := line.InterpretTable(tbl)
				if err != nil {
					t.Fatal(err)
				}
				for _, x := range walkInputs(fs, dom1) {
					ref, err := query.Exec(tbl, line, query.NewTopK(x, n))
					if err != nil {
						t.Fatal(err)
					}
					for _, q := range walkQueries(x, ref.Scores) {
						var frame []byte
						for i, tree := range trees {
							enc := wire.EncodeIFMH(checkWalk(t, tree, line, q))
							if i == 0 {
								frame = enc
							} else if !bytes.Equal(enc, frame) {
								t.Fatalf("%+v: the loaded tree answers with different bytes than the built one", q)
							}
						}
					}
				}
			})
		}
		for _, n := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("2D/%v/n=%d", mode, n), func(t *testing.T) {
				tbl := quarterTable(t, n, 2, int64(10+n))
				tpl := funcs.ScalarProduct(2)
				dom := geometry.MustBox([]float64{-1, -1}, []float64{1, 1})
				tree := outsourceWalk(t, build.Spec{Table: tbl, Template: tpl, Domain: dom, Signer: walkSigner},
					build.WithMode(mode)).Tree
				for _, x := range []geometry.Point{{-1, -1}, {1, 1}, {0, 0}, {0.5, -0.25}, {-0.125, 0.75}, {1, -1}} {
					ref, err := query.Exec(tbl, tpl, query.NewTopK(x, n))
					if err != nil {
						t.Fatal(err)
					}
					for _, q := range walkQueries(x, ref.Scores) {
						checkWalk(t, tree, tpl, q)
					}
				}
			})
		}
	}
}

// TestProcessCostIsFlatInN: serving an answer allocates for the answer
// — the window, the proof, the frame — and for nothing that grows with
// the table: quadrupling n moves the bytes per answer by two tree levels
// of proof. (Materializing the list per query, as the walk once did,
// costs 24 more bytes per record: +36 KB at n = 2000.)
func TestProcessCostIsFlatInN(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2000-record tree")
	}
	perAnswer := func(n int) (bytesPer, allocsPer float64) {
		tbl, dom, err := workload.Lines(workload.LinesConfig{N: n, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		tpl := funcs.AffineLine(0, 1)
		tree := outsourceWalk(t, build.Spec{Table: tbl, Template: tpl, Domain: dom, Signer: walkSigner},
			build.WithMode(verify.MultiSignature)).Tree
		// 64 records of every kind, wherever they sit in the list.
		x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
		ref, err := query.Exec(tbl, tpl, query.NewBottomK(x, n))
		if err != nil {
			t.Fatal(err)
		}
		qs := []query.Query{
			query.NewTopK(x, 64),
			query.NewRange(x, ref.Scores[n/4], ref.Scores[n/4+63]),
			query.NewKNN(x, 64, ref.Scores[n/2]),
		}
		serve := func() {
			for _, q := range qs {
				ans, err := tree.Process(q, nil)
				if err != nil {
					t.Fatal(err)
				}
				wire.EncodeIFMH(ans)
			}
		}
		allocsPer = testing.AllocsPerRun(20, serve) / float64(len(qs))
		const rounds = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			serve()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*len(qs)), allocsPer
	}
	small, smallAllocs := perAnswer(500)
	large, largeAllocs := perAnswer(2000)
	t.Logf("bytes per answer: n=500 %.0f, n=2000 %.0f; allocations %.1f, %.1f", small, large, smallAllocs, largeAllocs)
	if large > 1.10*small {
		t.Errorf("n=2000 allocates %.0f B per answer, n=500 %.0f: the cost scales with the table", large, small)
	}
	if smallAllocs > 5 || largeAllocs > 5 {
		t.Errorf("%.1f / %.1f allocations per answer, want <= 5 (answer, window indices, records, proof, frame)", smallAllocs, largeAllocs)
	}
}

// TestLeafIndexIsThePermutation: wherever a list is made — the delta
// chain of a first build, the lists build.Apply re-derives, the forest
// artifact.Open reads back — position p of subdomain id's list names the
// record at position p of the exact sort of the functions at the
// subdomain's witness, for every subdomain; and the two sentinels name
// no record. A reopened tree keeps no regions, so it is held to the
// witnesses of the tree it was saved from.
func TestLeafIndexIsThePermutation(t *testing.T) {
	tbl := quarterTable(t, 30, 2, 7)
	spec := build.Spec{Table: tbl, Template: funcs.AffineLine(0, 1),
		Domain: geometry.MustBox([]float64{-1}, []float64{1}), Signer: walkSigner}
	first := outsourceWalk(t, spec, build.WithMode(verify.OneSignature))

	upd := tbl.Records[3]
	upd.Attrs = []float64{upd.Attrs[0] + 0.5, upd.Attrs[1] - 0.25}
	applied, err := build.Apply(context.Background(), first,
		build.Update(3, upd),
		build.Insert(record.Record{ID: 1000, Attrs: []float64{0.75, -0.5}}),
		build.Delete(11))
	if err != nil {
		t.Fatal(err)
	}

	// sorted is the reference: subdomain id's exact order at its witness.
	sorted := func(res *build.Result) [][]int {
		snap := res.Tree.Snapshot()
		fs, err := snap.Template.InterpretTable(snap.Table)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]int, len(snap.ITree.Subs))
		for id, sub := range snap.ITree.Subs {
			out[id] = itree.SortAtExact(fs, sub.Region.(*itree.Interval1D).Witness())
		}
		return out
	}
	firstOrders, appliedOrders := sorted(first), sorted(applied)
	for _, tc := range []struct {
		name   string
		tree   *core.Tree
		orders [][]int
	}{
		{"built", first.Tree, firstOrders},
		{"applied", applied.Tree, appliedOrders},
		{"built, reopened", reopen(t, first), firstOrders},
		{"applied, reopened", reopen(t, applied), appliedOrders},
	} {
		name, snap := tc.name, tc.tree.Snapshot()
		n := snap.Table.Len()
		if len(snap.Subs) < 2 || len(snap.Subs) != len(tc.orders) {
			t.Fatalf("%s: %d subdomains for %d witnesses, want a sweep to follow", name, len(snap.Subs), len(tc.orders))
		}
		for id, si := range snap.Subs {
			want := tc.orders[id]
			got, err := si.List.Window(nil, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != mhtree.NoRecord || got[n+1] != mhtree.NoRecord {
				t.Fatalf("%s: subdomain %d sentinels name records %d, %d", name, id, got[0], got[n+1])
			}
			if !slices.Equal(got[1:n+1], want) {
				t.Fatalf("%s: subdomain %d list reads %v, the sort says %v", name, id, got[1:n+1], want)
			}
			rd := si.List.Reader()
			for _, p := range []int{0, n / 2, n - 1} {
				if got := rd.At(p); got != want[p] {
					t.Fatalf("%s: subdomain %d position %d reads %d, the sort says %d", name, id, p, got, want[p])
				}
			}
		}
	}
}

// TestNDLeavesAreTheSortedOrder is the multivariate ground truth: the
// leaves are the only place a bivariate or trivariate subdomain's order
// lives, so at seeded sample points the full leaf order of the subdomain
// the I-tree search lands in must be the brute-force sort of the
// functions there — on the built tree and on the same tree read back
// from an artifact. Points within 1e-9 of a difference hyperplane are
// skipped: there the float sort and the exact arrangement may
// legitimately disagree.
func TestNDLeavesAreTheSortedOrder(t *testing.T) {
	const samples = 200
	for _, dim := range []int{2, 3} {
		for _, n := range []int{5, 8} {
			for _, dist := range []workload.Distribution{workload.Uniform, workload.AntiCorrelated} {
				t.Run(fmt.Sprintf("%dD/n=%d/%s", dim, n, dist), func(t *testing.T) {
					tbl, dom, err := workload.Points(workload.PointsConfig{N: n, Dim: dim, Seed: int64(10*dim + n), Dist: dist})
					if err != nil {
						t.Fatal(err)
					}
					tpl := funcs.ScalarProduct(dim)
					res := outsourceWalk(t, build.Spec{Table: tbl, Template: tpl, Domain: dom, Signer: walkSigner},
						build.WithMode(verify.MultiSignature))
					fs, err := tpl.InterpretTable(tbl)
					if err != nil {
						t.Fatal(err)
					}
					nearTie := func(x geometry.Point) bool {
						for i := range fs {
							for j := i + 1; j < len(fs); j++ {
								if math.Abs(fs[i].Eval(x)-fs[j].Eval(x)) < 1e-9 {
									return true
								}
							}
						}
						return false
					}
					snaps := map[string]core.Snapshot{"built": res.Tree.Snapshot(), "reopened": reopen(t, res).Snapshot()}
					rng := rand.New(rand.NewSource(int64(n)))
					visited := map[int]bool{}
					for checked := 0; checked < samples; {
						x := make(geometry.Point, dim)
						for a := range x {
							x[a] = dom.Lo[a] + rng.Float64()*(dom.Hi[a]-dom.Lo[a])
						}
						if nearTie(x) {
							continue
						}
						checked++
						want := itree.SortAt(fs, x)
						for name, snap := range snaps {
							sub := snap.ITree.Search(x, nil, nil)
							visited[sub.ID] = true
							got, err := snap.Subs[sub.ID].List.Window(nil, 0, n)
							if err != nil {
								t.Fatal(err)
							}
							if !slices.Equal(got[1:n+1], want) {
								t.Fatalf("%s: at %v subdomain %d's leaves read %v, the sort says %v", name, x, sub.ID, got[1:n+1], want)
							}
						}
					}
					if len(visited) < 2 {
						t.Fatalf("the samples landed in %d subdomain(s) of %d; the check needs orders to compare", len(visited), len(snaps["built"].Subs))
					}
				})
			}
		}
	}
}

// TestNDOrderIsScaleInvariant: multiplying every attribute by 2^k is
// exact in floats and scales every difference hyperplane by 2^k, so the
// exact arrangement — and the 2-D tree of a build whose split test
// measures distance — must not change with k. For each scale the
// subdomain count and the sorted multiset of leaf orders must equal the
// k = 0 tree's, and at 3 000 seeded inputs (skipping those within
// 1e-9·2^k of a tie) the leaf the search lands in must hold
// itree.SortAt's order. Three dimensions are held at the split test
// itself (itree's TestSpaceNDSplitIsScaleInvariant): there a whole build
// is not, because the canonical insertion order hashes the scaled
// hyperplane bytes and the tolerance-based 3-D split depends on that
// order at its margin.
func TestNDOrderIsScaleInvariant(t *testing.T) {
	const dim, inputs = 2, 3000
	tpl := funcs.ScalarProduct(dim)
	for _, n := range []int{8, 16} {
		for _, dist := range []workload.Distribution{workload.Uniform, workload.AntiCorrelated} {
			t.Run(fmt.Sprintf("n=%d/%s", n, dist), func(t *testing.T) {
				tbl, dom, err := workload.Points(workload.PointsConfig{N: n, Dim: dim, Seed: int64(10*dim + n), Dist: dist})
				if err != nil {
					t.Fatal(err)
				}
				var baseOrders []string
				for _, k := range []int{0, -23, -17, -10, 10, 20} {
					scaled := scaleTable(t, tbl, k)
					res := outsourceWalk(t, build.Spec{Table: scaled, Template: tpl, Domain: dom, Signer: walkSigner},
						build.WithMode(verify.MultiSignature))
					snap := res.Tree.Snapshot()
					orders := make([]string, len(snap.Subs))
					for id, si := range snap.Subs {
						got, err := si.List.Window(nil, 0, n)
						if err != nil {
							t.Fatal(err)
						}
						orders[id] = fmt.Sprint(got[1 : n+1])
					}
					slices.Sort(orders)
					if k == 0 {
						baseOrders = orders
						continue
					}
					if len(orders) != len(baseOrders) {
						t.Errorf("scale 2^%d: %d subdomains, scale 1 has %d", k, len(orders), len(baseOrders))
					} else if !slices.Equal(orders, baseOrders) {
						t.Errorf("scale 2^%d: the leaf orders differ from scale 1's", k)
					}
					fs, err := tpl.InterpretTable(scaled)
					if err != nil {
						t.Fatal(err)
					}
					tie := math.Ldexp(1e-9, k)
					rng := rand.New(rand.NewSource(int64(n)))
					wrong := 0
					for checked := 0; checked < inputs; {
						x := make(geometry.Point, dim)
						for a := range x {
							x[a] = dom.Lo[a] + rng.Float64()*(dom.Hi[a]-dom.Lo[a])
						}
						if nearTieAt(fs, x, tie) {
							continue
						}
						checked++
						sub := snap.ITree.Search(x, nil, nil)
						got, err := snap.Subs[sub.ID].List.Window(nil, 0, n)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got[1:n+1], itree.SortAt(fs, x)) {
							wrong++
						}
					}
					if wrong > 0 {
						t.Errorf("scale 2^%d: %d of %d inputs land in a leaf whose order is not the sort there", k, wrong, inputs)
					}
				}
			})
		}
	}
}

// scaleTable returns tbl with every attribute multiplied by 2^k.
func scaleTable(t *testing.T, tbl record.Table, k int) record.Table {
	t.Helper()
	recs := make([]record.Record, len(tbl.Records))
	for i, r := range tbl.Records {
		attrs := make([]float64, len(r.Attrs))
		for a, v := range r.Attrs {
			attrs[a] = math.Ldexp(v, k)
		}
		recs[i] = record.Record{ID: r.ID, Attrs: attrs}
	}
	out, err := record.NewTable(tbl.Schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// nearTieAt reports whether two functions score within tol of each other
// at x.
func nearTieAt(fs []funcs.Linear, x geometry.Point, tol float64) bool {
	for i := range fs {
		for j := i + 1; j < len(fs); j++ {
			if math.Abs(fs[i].Eval(x)-fs[j].Eval(x)) < tol {
				return true
			}
		}
	}
	return false
}
