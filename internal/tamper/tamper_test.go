package tamper

import (
	"errors"
	"math/rand"
	"testing"

	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/mesh"
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
			ID:      uint64(i + 1),
			Attrs:   []float64{rng.NormFloat64(), rng.NormFloat64() * 3},
			Payload: []byte{byte(i)},
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

func testQueries(rng *rand.Rand) []query.Query {
	x := geometry.Point{rng.Float64()*2 - 1}
	return []query.Query{
		query.NewTopK(x, 5),
		query.NewBottomK(x, 5),
		query.NewRange(x, -2, 2),
		query.NewKNN(x, 5, rng.NormFloat64()),
	}
}

// TestEveryIFMHTamperDetected is the security evaluation of §4.1: every
// applicable attack, on every query type and both signing modes, must
// fail verification — while the untampered answer verifies.
func TestEveryIFMHTamperDetected(t *testing.T) {
	tbl := lineTable(t, 50, 1)
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			tree, err := core.Build(tbl, core.Params{
				Mode: mode, Signer: testSigner,
				Domain:   geometry.MustBox([]float64{-1}, []float64{1}),
				Template: funcs.AffineLine(0, 1),
			})
			if err != nil {
				t.Fatal(err)
			}
			pub := tree.Public()
			rng := rand.New(rand.NewSource(2))
			applied := map[string]int{}
			for trial := 0; trial < 12; trial++ {
				for _, q := range testQueries(rng) {
					ans, err := tree.Process(q, nil)
					if err != nil {
						t.Fatal(err)
					}
					if err := verify.Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
						t.Fatalf("%v: honest answer rejected: %v", q.Kind, err)
					}
					for _, atk := range IFMHCatalog() {
						bad := ans.Clone()
						if !atk.Apply(bad, rng) {
							continue
						}
						applied[atk.Name]++
						err := verify.Verify(pub, q, bad.Records, &bad.VO, nil)
						if err == nil {
							t.Fatalf("%v + %s: tampered answer ACCEPTED", q.Kind, atk.Name)
						}
						if !errors.Is(err, verify.ErrVerification) {
							t.Fatalf("%v + %s: unexpected error class: %v", q.Kind, atk.Name, err)
						}
					}
				}
			}
			// Every mode-applicable attack must have fired at least once.
			for _, atk := range IFMHCatalog() {
				switch atk.Name {
				case "flip-path-direction", "drop-path-step", "swap-path-sibling":
					if mode != verify.OneSignature {
						continue
					}
				case "widen-subdomain-ineqs", "drop-subdomain-ineq":
					if mode != verify.MultiSignature {
						continue
					}
				}
				if applied[atk.Name] == 0 {
					t.Errorf("attack %q never applied; coverage gap", atk.Name)
				}
			}
		})
	}
}

// TestEveryMeshTamperDetected mirrors the IFMH suite for the baseline.
func TestEveryMeshTamperDetected(t *testing.T) {
	tbl := lineTable(t, 50, 3)
	m, err := mesh.Build(tbl, mesh.Params{
		Signer:   testSigner,
		Domain:   geometry.MustBox([]float64{-1}, []float64{1}),
		Template: funcs.AffineLine(0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	pub := m.Public()
	rng := rand.New(rand.NewSource(4))
	applied := map[string]int{}
	for trial := 0; trial < 15; trial++ {
		for _, q := range testQueries(rng) {
			ans, err := m.Process(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := mesh.Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
				t.Fatalf("%v: honest answer rejected: %v", q.Kind, err)
			}
			for _, atk := range MeshCatalog() {
				bad := ans.Clone()
				if !atk.Apply(bad, rng) {
					continue
				}
				applied[atk.Name]++
				err := mesh.Verify(pub, q, bad.Records, &bad.VO, nil)
				if err == nil {
					t.Fatalf("%v + %s: tampered mesh answer ACCEPTED", q.Kind, atk.Name)
				}
				if !errors.Is(err, verify.ErrVerification) {
					t.Fatalf("%v + %s: unexpected error class: %v", q.Kind, atk.Name, err)
				}
			}
		}
	}
	for _, atk := range MeshCatalog() {
		if applied[atk.Name] == 0 {
			t.Errorf("attack %q never applied; coverage gap", atk.Name)
		}
	}
}

// TestTamperDetectedIn2D runs the catalog against the LP-backed
// multivariate path.
func TestTamperDetectedIn2D(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 8
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{
			ID:    uint64(i + 1),
			Attrs: []float64{rng.Float64()*3 + 0.5, rng.Float64()*3 + 0.5},
		}
	}
	tbl, err := record.NewTable(record.Schema{
		Name:    "points",
		Columns: []record.Column{{Name: "a"}, {Name: "b"}},
	}, recs)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.Build(tbl, core.Params{
		Mode: verify.MultiSignature, Signer: testSigner,
		Domain:   geometry.MustBox([]float64{0.1, 0.1}, []float64{1, 1}),
		Template: funcs.ScalarProduct(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	pub := tree.Public()
	for trial := 0; trial < 10; trial++ {
		x := geometry.Point{0.1 + rng.Float64()*0.9, 0.1 + rng.Float64()*0.9}
		q := query.NewTopK(x, 3)
		ans, err := tree.Process(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, atk := range IFMHCatalog() {
			bad := ans.Clone()
			if !atk.Apply(bad, rng) {
				continue
			}
			if err := verify.Verify(pub, q, bad.Records, &bad.VO, nil); err == nil {
				t.Fatalf("2-D %s: tampered answer ACCEPTED", atk.Name)
			}
		}
	}
}
