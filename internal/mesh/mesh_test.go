package mesh

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
)

var testSigner = func() sig.Signer {
	s, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		panic(err)
	}
	return s
}()

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

func buildMesh(t testing.TB, tbl record.Table) *Mesh {
	t.Helper()
	m, err := Build(tbl, Params{
		Signer:   testSigner,
		Domain:   geometry.MustBox([]float64{-1}, []float64{1}),
		Template: funcs.AffineLine(0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestHonestRoundTrip(t *testing.T) {
	tbl := lineTable(t, 40, 1)
	m := buildMesh(t, tbl)
	pub := m.Public()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		x := geometry.Point{rng.Float64()*2 - 1}
		for _, q := range []query.Query{
			query.NewTopK(x, 1+rng.Intn(6)),
			query.NewBottomK(x, 1+rng.Intn(6)),
			query.NewRange(x, -2, 2),
			query.NewRange(x, 50, 60),
			query.NewKNN(x, 1+rng.Intn(6), rng.NormFloat64()),
		} {
			ans, err := m.Process(q, nil)
			if err != nil {
				t.Fatalf("%v: Process: %v", q.Kind, err)
			}
			if err := Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
				t.Fatalf("%v: honest answer rejected: %v", q.Kind, err)
			}
		}
	}
}

func TestResultsMatchOracle(t *testing.T) {
	tbl := lineTable(t, 35, 3)
	m := buildMesh(t, tbl)
	tpl := funcs.AffineLine(0, 1)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		x := geometry.Point{rng.Float64()*2 - 1}
		for _, q := range []query.Query{
			query.NewTopK(x, 4),
			query.NewRange(x, -1, 1),
			query.NewKNN(x, 3, 0),
		} {
			ans, err := m.Process(q, nil)
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
					a := tpl.Interpret(0, ans.Records[i]).Eval(q.X)
					if a != want.Scores[i] {
						t.Fatalf("%v: record %d differs from oracle", q.Kind, i)
					}
				}
			}
		}
	}
}

func TestMeshAgreesWithIFMH(t *testing.T) {
	tbl := lineTable(t, 30, 5)
	m := buildMesh(t, tbl)
	tree, err := core.BuildCtx(context.Background(), tbl, core.Params{
		Mode:     verify.OneSignature,
		Signer:   testSigner,
		Domain:   geometry.MustBox([]float64{-1}, []float64{1}),
		Template: funcs.AffineLine(0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSubdomains() != tree.NumSubdomains() {
		t.Fatalf("mesh has %d subdomains, IFMH %d", m.NumSubdomains(), tree.NumSubdomains())
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		q := query.NewTopK(geometry.Point{rng.Float64()*2 - 1}, 3)
		a1, err := m.Process(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := tree.Process(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a1.Records) != len(a2.Records) {
			t.Fatal("mesh and IFMH result sizes differ")
		}
		for i := range a1.Records {
			if a1.Records[i].ID != a2.Records[i].ID {
				t.Fatal("mesh and IFMH results differ")
			}
		}
	}
}

func TestSignatureCountExceedsSubdomains(t *testing.T) {
	tbl := lineTable(t, 25, 7)
	m := buildMesh(t, tbl)
	// The mesh needs at least one signature per adjacency of the base
	// list (n+1) and roughly three per crossing; it must far exceed the
	// multi-signature scheme's S signatures for the same data.
	if m.SignatureCount() <= m.NumSubdomains() {
		t.Errorf("mesh signatures = %d, subdomains = %d; expected the mesh to need more",
			m.SignatureCount(), m.NumSubdomains())
	}
	if m.SignatureCount() < m.NumRecords()+1 {
		t.Errorf("mesh signatures = %d, below the base-list minimum %d",
			m.SignatureCount(), m.NumRecords()+1)
	}
}

func TestLinearScanCost(t *testing.T) {
	tbl := lineTable(t, 50, 8)
	m := buildMesh(t, tbl)
	// A query near the right edge of the domain must scan ~all cells.
	var ctr metrics.Counter
	if _, err := m.Process(query.NewTopK(geometry.Point{0.999}, 1), &ctr); err != nil {
		t.Fatal(err)
	}
	if int(ctr.CellsVisited) < m.NumSubdomains()/2 {
		t.Errorf("right-edge query visited %d cells of %d; expected a linear scan",
			ctr.CellsVisited, m.NumSubdomains())
	}
	// A query near the left edge exits early.
	ctr = metrics.Counter{}
	if _, err := m.Process(query.NewTopK(geometry.Point{-0.999}, 1), &ctr); err != nil {
		t.Fatal(err)
	}
	if ctr.CellsVisited > 5 {
		t.Errorf("left-edge query visited %d cells; expected an early exit", ctr.CellsVisited)
	}
}

func TestVerificationCountsSignatures(t *testing.T) {
	tbl := lineTable(t, 40, 9)
	m := buildMesh(t, tbl)
	pub := m.Public()
	q := query.NewTopK(geometry.Point{0.2}, 7)
	ans, err := m.Process(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ctr metrics.Counter
	if err := Verify(pub, q, ans.Records, &ans.VO, &ctr); err != nil {
		t.Fatal(err)
	}
	if ctr.SigVerifies != 8 {
		t.Errorf("verifies = %d, want |q|+1 = 8", ctr.SigVerifies)
	}
}

func TestVerifyRejectsForgeries(t *testing.T) {
	tbl := lineTable(t, 40, 10)
	m := buildMesh(t, tbl)
	pub := m.Public()
	q := query.NewRange(geometry.Point{0.3}, -1.5, 1.5)
	ans, err := m.Process(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Records) < 3 {
		t.Fatalf("want a non-trivial window, got %d", len(ans.Records))
	}

	cases := []struct {
		name   string
		mutate func(*Answer)
	}{
		{"forged attribute", func(a *Answer) { a.Records[1].Attrs[1] += 1 }},
		{"dropped middle record", func(a *Answer) {
			a.Records = append(a.Records[:1], a.Records[2:]...)
			a.VO.Pairs = append(a.VO.Pairs[:1], a.VO.Pairs[2:]...)
		}},
		{"swapped records", func(a *Answer) {
			a.Records[0], a.Records[1] = a.Records[1], a.Records[0]
		}},
		{"corrupt signature", func(a *Answer) { a.VO.Pairs[0].Sig[3] ^= 1 }},
		{"run interval stretched", func(a *Answer) { a.VO.Pairs[0].Lo -= 0.5 }},
		{"boundary forged", func(a *Answer) { a.VO.Left.Rec.Attrs[0] += 2 }},
		{"pair proof truncated", func(a *Answer) {
			a.Records = a.Records[:len(a.Records)-1]
			a.VO.Pairs = a.VO.Pairs[:len(a.VO.Pairs)-1]
			// The last remaining pair no longer reaches the right
			// boundary record, so chain verification must fail.
		}},
	}
	for _, tc := range cases {
		bad := ans.Clone()
		tc.mutate(bad)
		if err := Verify(pub, q, bad.Records, &bad.VO, nil); !errors.Is(err, verify.ErrVerification) {
			t.Errorf("%s: accepted (%v)", tc.name, err)
		}
	}
}

func TestVerifyRejectsWrongSubdomainReplay(t *testing.T) {
	tbl := lineTable(t, 40, 11)
	m := buildMesh(t, tbl)
	pub := m.Public()
	q1 := query.NewTopK(geometry.Point{-0.9}, 3)
	ans, err := m.Process(q1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Replaying the answer for a far-away function input must fail the
	// run-interval checks (different subdomain, different order).
	q2 := query.NewTopK(geometry.Point{0.9}, 3)
	if err := Verify(pub, q2, ans.Records, &ans.VO, nil); !errors.Is(err, verify.ErrVerification) {
		t.Errorf("cross-subdomain replay accepted (%v)", err)
	}
}

func TestBuildValidation(t *testing.T) {
	tbl := lineTable(t, 5, 12)
	if _, err := Build(tbl, Params{Domain: geometry.MustBox([]float64{-1}, []float64{1}), Template: funcs.AffineLine(0, 1)}); err == nil {
		t.Error("nil signer accepted")
	}
	if _, err := Build(tbl, Params{Signer: testSigner, Domain: geometry.MustBox([]float64{-1, -1}, []float64{1, 1}), Template: funcs.ScalarProduct(2)}); err == nil {
		t.Error("multivariate mesh accepted")
	}
	if _, err := Build(record.Table{Schema: tbl.Schema}, Params{Signer: testSigner, Domain: geometry.MustBox([]float64{-1}, []float64{1}), Template: funcs.AffineLine(0, 1)}); err == nil {
		t.Error("empty table accepted")
	}
}

func TestEmptyRangeResult(t *testing.T) {
	tbl := lineTable(t, 20, 13)
	m := buildMesh(t, tbl)
	pub := m.Public()
	q := query.NewRange(geometry.Point{0}, 1e6, 2e6)
	ans, err := m.Process(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Records) != 0 || len(ans.VO.Pairs) != 1 {
		t.Fatalf("empty result: %d records, %d pairs", len(ans.Records), len(ans.VO.Pairs))
	}
	if err := Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
		t.Fatalf("empty result rejected: %v", err)
	}
}

// TestConcurrentMeshQueries queries one mesh from many goroutines (run
// with -race); results must match the single-threaded answers.
func TestConcurrentMeshQueries(t *testing.T) {
	tbl := lineTable(t, 40, 14)
	m := buildMesh(t, tbl)
	pub := m.Public()
	qs := make([]query.Query, 20)
	want := make([][]uint64, len(qs))
	rng := rand.New(rand.NewSource(15))
	for i := range qs {
		qs[i] = query.NewTopK(geometry.Point{rng.Float64()*2 - 1}, 3)
		ans, err := m.Process(qs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range ans.Records {
			want[i] = append(want[i], r.ID)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range qs {
				j := (i + worker*3) % len(qs)
				ans, err := m.Process(qs[j], nil)
				if err != nil {
					errs <- err
					return
				}
				if err := Verify(pub, qs[j], ans.Records, &ans.VO, nil); err != nil {
					errs <- err
					return
				}
				for k, r := range ans.Records {
					if r.ID != want[j][k] {
						errs <- fmt.Errorf("concurrent mesh result differs")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestVOSizeMeshGrowsWithResult(t *testing.T) {
	m := buildMesh(t, lineTable(t, 40, 9))
	a3, err := m.Process(query.NewTopK(geometry.Point{0.1}, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	a20, err := m.Process(query.NewTopK(geometry.Point{0.1}, 20), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a20.VO.Size() <= a3.VO.Size() {
		t.Errorf("mesh VO size should grow with |q|: %d vs %d", a20.VO.Size(), a3.VO.Size())
	}
}
