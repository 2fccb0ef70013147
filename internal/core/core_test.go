package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"aqverify/internal/fmh"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/itree"
	"aqverify/internal/metrics"
	"aqverify/internal/mhtree"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
)

// testSigner is shared across tests; Ed25519 keygen is cheap but one key
// is enough.
var testSigner = func() sig.Signer {
	s, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		panic(err)
	}
	return s
}()

// lineTable synthesizes n univariate-line records (slope, intercept).
func lineTable(t testing.TB, n int, seed int64) record.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{
			ID:    uint64(i + 1),
			Attrs: []float64{rng.NormFloat64(), rng.NormFloat64() * 3},
		}
	}
	tbl, err := record.NewTable(record.Schema{
		Name:    "lines",
		Columns: []record.Column{{Name: "slope"}, {Name: "intercept"}},
	}, recs)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func build1D(t testing.TB, tbl record.Table, mode verify.Mode) *Owner {
	t.Helper()
	tree, err := BuildCtx(context.Background(), tbl, Params{
		Mode:     mode,
		Signer:   testSigner,
		Domain:   geometry.MustBox([]float64{-1}, []float64{1}),
		Template: funcs.AffineLine(0, 1),
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func queriesFor(rng *rand.Rand, k int) []query.Query {
	x := geometry.Point{rng.Float64()*2 - 1}
	return []query.Query{
		query.NewTopK(x, k),
		query.NewRange(x, -2, 2),
		query.NewRange(x, 100, 200), // likely empty
		query.NewKNN(x, k, rng.NormFloat64()),
	}
}

func TestHonestRoundTripAllModes(t *testing.T) {
	tbl := lineTable(t, 60, 1)
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			tree := build1D(t, tbl, mode)
			pub := tree.Public()
			rng := rand.New(rand.NewSource(2))
			for trial := 0; trial < 40; trial++ {
				for _, q := range queriesFor(rng, 1+rng.Intn(8)) {
					ans, err := tree.Process(q, nil)
					if err != nil {
						t.Fatalf("%v: Process: %v", q.Kind, err)
					}
					if err := verify.Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
						t.Fatalf("%v: honest answer rejected: %v", q.Kind, err)
					}
				}
			}
		})
	}
}

func TestResultsMatchOracle(t *testing.T) {
	tbl := lineTable(t, 50, 3)
	tree := build1D(t, tbl, verify.OneSignature)
	tpl := funcs.AffineLine(0, 1)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 60; trial++ {
		for _, q := range queriesFor(rng, 1+rng.Intn(6)) {
			ans, err := tree.Process(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := query.Exec(tbl, tpl, q)
			if err != nil {
				t.Fatal(err)
			}
			if len(ans.Records) != len(want.Records) {
				t.Fatalf("%v: got %d records, oracle %d", q.Kind, len(ans.Records), len(want.Records))
			}
			for i := range want.Records {
				if ans.Records[i].ID != want.Records[i].ID {
					// Near-tie orders may legitimately differ between
					// exact construction order and the oracle's float
					// sort; accept iff scores match.
					a := tpl.Interpret(0, ans.Records[i]).Eval(q.X)
					b := want.Scores[i]
					if a != b {
						t.Fatalf("%v: record %d: got ID %d (score %v), oracle ID %d (score %v)",
							q.Kind, i, ans.Records[i].ID, a, want.Records[i].ID, b)
					}
				}
			}
		}
	}
}

// TestSweepChainMatchesFreshLists is the from-scratch reference for the
// one univariate construction: every subdomain's list — derived
// from its left neighbor by one path-copying pass over the positions the
// boundary's swaps touched — has
// the root of a list built here from nothing, over that subdomain's
// exact sorted order at its witness. A wrong or misplaced swap in the
// chain moves a root.
func TestSweepChainMatchesFreshLists(t *testing.T) {
	tables := map[string]record.Table{}
	for _, n := range []int{1, 2, 7, 60} {
		tables[fmt.Sprintf("n=%d", n)] = lineTable(t, n, int64(5+n))
	}
	// A pencil: seven lines through (1/4, 1/2), one shared breakpoint
	// where the sweep reverses a 7-block, plus one line off it.
	pencil := [][2]float64{{0.25, 0.125}}
	for _, slope := range []float64{-2, -1, -0.5, 0.5, 1, 2, 3} {
		pencil = append(pencil, [2]float64{slope, 0.5 - slope/4})
	}
	tables["pencil"] = tinyTable(t, pencil...)

	for name, tbl := range tables {
		for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
			t.Run(fmt.Sprintf("%s/%v", name, mode), func(t *testing.T) {
				tree := build1D(t, tbl, mode)
				leaves := make([]hashing.Digest, tbl.Len())
				for i, rec := range tbl.Records {
					leaves[i] = tree.hasher.Leaf(rec)
				}
				for k, si := range tree.subs {
					perm := itree.SortAtExact(tree.fs, si.Sub.Region.(*itree.Interval1D).Witness())
					fresh := fmh.Build(tree.hasher, new(mhtree.Forest), perm, leaves)
					if si.List.Root() != fresh.Root() {
						t.Fatalf("subdomain %d of %d: the derived list's root differs from a fresh list over the same order", k, len(tree.subs))
					}
				}
			})
		}
	}
}

func TestSignatureCounts(t *testing.T) {
	tbl := lineTable(t, 25, 9)
	one := build1D(t, tbl, verify.OneSignature)
	multi := build1D(t, tbl, verify.MultiSignature)
	if one.SignatureCount() != 1 {
		t.Errorf("one-signature count = %d", one.SignatureCount())
	}
	if multi.SignatureCount() != multi.NumSubdomains() {
		t.Errorf("multi-signature count = %d, want %d", multi.SignatureCount(), multi.NumSubdomains())
	}
}

func TestProcessRejectsBadQueries(t *testing.T) {
	tbl := lineTable(t, 10, 10)
	tree := build1D(t, tbl, verify.OneSignature)
	if _, err := tree.Process(query.NewTopK(geometry.Point{5}, 1), nil); err == nil {
		t.Error("query outside the owner domain accepted")
	}
	if _, err := tree.Process(query.NewTopK(geometry.Point{0, 0}, 1), nil); err == nil {
		t.Error("wrong-dimension query accepted")
	}
	if _, err := tree.Process(query.NewTopK(geometry.Point{0}, 0), nil); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestBuildValidation(t *testing.T) {
	tbl := lineTable(t, 5, 11)
	base := Params{
		Signer:   testSigner,
		Domain:   geometry.MustBox([]float64{-1}, []float64{1}),
		Template: funcs.AffineLine(0, 1),
	}
	p := base
	p.Signer = nil
	if _, err := BuildCtx(context.Background(), tbl, p); err == nil {
		t.Error("nil signer accepted")
	}
	p = base
	p.Domain = geometry.MustBox([]float64{-1, -1}, []float64{1, 1})
	if _, err := BuildCtx(context.Background(), tbl, p); err == nil {
		t.Error("domain/template dimension mismatch accepted")
	}
	p = base
	p.Template = funcs.AffineLine(0, 7)
	if _, err := BuildCtx(context.Background(), tbl, p); err == nil {
		t.Error("template beyond schema arity accepted")
	}
	if _, err := BuildCtx(context.Background(), record.Table{Schema: tbl.Schema}, base); err == nil {
		t.Error("empty table accepted")
	}
}

func TestVerifyRejectsBasicForgeries(t *testing.T) {
	tbl := lineTable(t, 40, 12)
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		tree := build1D(t, tbl, mode)
		pub := tree.Public()
		q := query.NewRange(geometry.Point{0.25}, -1, 1)
		ans, err := tree.Process(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Records) < 3 {
			t.Fatalf("want a non-trivial window, got %d records", len(ans.Records))
		}

		// Forged record attribute.
		bad := ans.Clone()
		bad.Records[1].Attrs[1] += 1
		if err := verify.Verify(pub, q, bad.Records, &bad.VO, nil); !errors.Is(err, verify.ErrVerification) {
			t.Errorf("%v: forged attribute accepted (%v)", mode, err)
		}

		// Dropped middle record.
		bad = ans.Clone()
		bad.Records = append(bad.Records[:1], bad.Records[2:]...)
		if err := verify.Verify(pub, q, bad.Records, &bad.VO, nil); !errors.Is(err, verify.ErrVerification) {
			t.Errorf("%v: dropped record accepted (%v)", mode, err)
		}

		// Shifted window start.
		bad = ans.Clone()
		bad.VO.Start++
		if err := verify.Verify(pub, q, bad.Records, &bad.VO, nil); !errors.Is(err, verify.ErrVerification) {
			t.Errorf("%v: shifted start accepted (%v)", mode, err)
		}

		// Flipped signature bit.
		bad = ans.Clone()
		bad.VO.Signature[0] ^= 1
		if err := verify.Verify(pub, q, bad.Records, &bad.VO, nil); !errors.Is(err, verify.ErrVerification) {
			t.Errorf("%v: corrupt signature accepted (%v)", mode, err)
		}

		// Mode confusion.
		bad = ans.Clone()
		bad.VO.Mode = 1 - bad.VO.Mode
		if err := verify.Verify(pub, q, bad.Records, &bad.VO, nil); !errors.Is(err, verify.ErrVerification) {
			t.Errorf("%v: mode mismatch accepted (%v)", mode, err)
		}
	}
}

func TestVerifyRejectsWrongQueryEcho(t *testing.T) {
	// A VO for one query must not verify for a different query: the
	// client passes its own query into Verify.
	tbl := lineTable(t, 30, 13)
	tree := build1D(t, tbl, verify.OneSignature)
	pub := tree.Public()
	q := query.NewTopK(geometry.Point{0.5}, 3)
	ans, err := tree.Process(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	q2 := query.NewTopK(geometry.Point{0.5}, 4)
	if err := verify.Verify(pub, q2, ans.Records, &ans.VO, nil); !errors.Is(err, verify.ErrVerification) {
		t.Errorf("answer for k=3 verified for k=4 (%v)", err)
	}
	// Different function input: the IMH path (or ineqs) no longer match.
	q3 := query.NewTopK(geometry.Point{-0.9}, 3)
	if err := verify.Verify(pub, q3, ans.Records, &ans.VO, nil); !errors.Is(err, verify.ErrVerification) {
		t.Errorf("answer for X=0.5 verified for X=-0.9 (%v)", err)
	}
}

func TestCountersObserveWork(t *testing.T) {
	tbl := lineTable(t, 64, 14)
	tree := build1D(t, tbl, verify.OneSignature)
	pub := tree.Public()
	q := query.NewRange(geometry.Point{0.1}, -1, 1)
	var srv metrics.Counter
	ans, err := tree.Process(q, &srv)
	if err != nil {
		t.Fatal(err)
	}
	if srv.NodesVisited == 0 {
		t.Error("server traversal not counted")
	}
	var cli metrics.Counter
	if err := verify.Verify(pub, q, ans.Records, &ans.VO, &cli); err != nil {
		t.Fatal(err)
	}
	if cli.Hashes == 0 {
		t.Error("client hashing not counted")
	}
	if cli.SigVerifies != 1 {
		t.Errorf("client signature verifications = %d, want 1", cli.SigVerifies)
	}
}

func TestKNNSmallDatabaseEdges(t *testing.T) {
	tbl := lineTable(t, 3, 15)
	tree := build1D(t, tbl, verify.MultiSignature)
	pub := tree.Public()
	// k greater than n: full list with sentinel boundaries.
	q := query.NewKNN(geometry.Point{0}, 10, 0)
	ans, err := tree.Process(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Records) != 3 {
		t.Fatalf("got %d records, want all 3", len(ans.Records))
	}
	if err := verify.Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
		t.Fatalf("full-list knn rejected: %v", err)
	}
	// Top-k covering everything.
	q = query.NewTopK(geometry.Point{0}, 3)
	ans, err = tree.Process(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
		t.Fatalf("full-list top-k rejected: %v", err)
	}
}

func TestEmptyRangeResult(t *testing.T) {
	tbl := lineTable(t, 20, 16)
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		tree := build1D(t, tbl, mode)
		pub := tree.Public()
		q := query.NewRange(geometry.Point{0}, 1e6, 2e6)
		ans, err := tree.Process(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Records) != 0 {
			t.Fatalf("expected empty result, got %d", len(ans.Records))
		}
		if err := verify.Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
			t.Fatalf("%v: empty result rejected: %v", mode, err)
		}
	}
}

func TestBuildND2D(t *testing.T) {
	// A small 2-D scalar-product database exercising the LP-backed space
	// end to end.
	rng := rand.New(rand.NewSource(17))
	n := 8
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{
			ID:    uint64(i + 1),
			Attrs: []float64{rng.Float64()*4 + 0.5, rng.Float64()*4 + 0.5},
		}
	}
	tbl, err := record.NewTable(record.Schema{
		Name:    "points",
		Columns: []record.Column{{Name: "a"}, {Name: "b"}},
	}, recs)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		tree, err := BuildCtx(context.Background(), tbl, Params{
			Mode:     mode,
			Signer:   testSigner,
			Domain:   geometry.MustBox([]float64{0.1, 0.1}, []float64{1, 1}),
			Template: funcs.ScalarProduct(2),
			Seed:     5,
		})
		if err != nil {
			t.Fatalf("%v: Build: %v", mode, err)
		}
		if tree.NumSubdomains() < 2 {
			t.Fatalf("%v: expected multiple subdomains, got %d", mode, tree.NumSubdomains())
		}
		pub := tree.Public()
		for trial := 0; trial < 25; trial++ {
			x := geometry.Point{0.1 + rng.Float64()*0.9, 0.1 + rng.Float64()*0.9}
			for _, q := range []query.Query{
				query.NewTopK(x, 3),
				query.NewRange(x, 1, 4),
				query.NewKNN(x, 2, 2.5),
			} {
				ans, err := tree.Process(q, nil)
				if err != nil {
					t.Fatalf("%v %v: Process: %v", mode, q.Kind, err)
				}
				if err := verify.Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
					t.Fatalf("%v %v: honest 2-D answer rejected: %v", mode, q.Kind, err)
				}
				want, err := query.Exec(tbl, funcs.ScalarProduct(2), q)
				if err != nil {
					t.Fatal(err)
				}
				if len(ans.Records) != len(want.Records) {
					t.Fatalf("%v %v: %d records, oracle %d", mode, q.Kind, len(ans.Records), len(want.Records))
				}
			}
		}
	}
}

func TestDuplicateBreakpoints(t *testing.T) {
	// Three lines through one point: a degenerate crossing where two
	// pairs share a breakpoint and the sweep must reorder a 3-block.
	recs := []record.Record{
		{ID: 1, Attrs: []float64{1, 0}},   // x
		{ID: 2, Attrs: []float64{-1, 0}},  // -x
		{ID: 3, Attrs: []float64{2, 0}},   // 2x
		{ID: 4, Attrs: []float64{0, 0.7}}, // 0.7
	}
	tbl, err := record.NewTable(record.Schema{
		Name:    "pencil",
		Columns: []record.Column{{Name: "slope"}, {Name: "intercept"}},
	}, recs)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildCtx(context.Background(), tbl, Params{
		Mode:     verify.OneSignature,
		Signer:   testSigner,
		Domain:   geometry.MustBox([]float64{-2}, []float64{2}),
		Template: funcs.AffineLine(0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	pub := tree.Public()
	for _, xv := range []float64{-1.5, -0.5, 0.2, 0.6, 1.5} {
		q := query.NewTopK(geometry.Point{xv}, 2)
		ans, err := tree.Process(q, nil)
		if err != nil {
			t.Fatalf("x=%v: %v", xv, err)
		}
		if err := verify.Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
			t.Fatalf("x=%v: %v", xv, err)
		}
		want, err := query.Exec(tbl, funcs.AffineLine(0, 1), q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Records {
			if ans.Records[i].ID != want.Records[i].ID {
				t.Fatalf("x=%v: record %d = ID %d, oracle %d", xv, i, ans.Records[i].ID, want.Records[i].ID)
			}
		}
	}
}
