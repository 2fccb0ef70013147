package core

import (
	"math"
	"slices"
	"testing"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/itree"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/verify"
)

func tinyTable(t *testing.T, rows ...[2]float64) record.Table {
	t.Helper()
	recs := make([]record.Record, len(rows))
	for i, r := range rows {
		recs[i] = record.Record{ID: uint64(i + 1), Attrs: []float64{r[0], r[1]}}
	}
	tbl, err := record.NewTable(record.Schema{
		Name:    "tiny",
		Columns: []record.Column{{Name: "slope"}, {Name: "intercept"}},
	}, recs)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestSingleRecordDatabase(t *testing.T) {
	// One record: no intersections, a single subdomain, and every query
	// returns the whole (one-element) list with sentinel boundaries.
	tbl := tinyTable(t, [2]float64{1, 0})
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		tree := build1D(t, tbl, mode)
		if tree.NumSubdomains() != 1 {
			t.Fatalf("%v: subdomains = %d, want 1", mode, tree.NumSubdomains())
		}
		pub := tree.Public()
		for _, q := range []query.Query{
			query.NewTopK(geometry.Point{0.5}, 1),
			query.NewTopK(geometry.Point{0.5}, 7),
			query.NewBottomK(geometry.Point{0.5}, 2),
			query.NewRange(geometry.Point{0.5}, -10, 10),
			query.NewRange(geometry.Point{0.5}, 100, 200),
			query.NewKNN(geometry.Point{0.5}, 1, 0),
		} {
			ans, err := tree.Process(q, nil)
			if err != nil {
				t.Fatalf("%v %v: %v", mode, q.Kind, err)
			}
			if err := verify.Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
				t.Fatalf("%v %v: %v", mode, q.Kind, err)
			}
		}
		// One-signature path on a single-leaf tree is empty: the leaf IS
		// the root.
		if mode == verify.OneSignature {
			ans, err := tree.Process(query.NewTopK(geometry.Point{0.5}, 1), nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(ans.VO.Path) != 0 {
				t.Errorf("single-subdomain IMH path has %d steps, want 0", len(ans.VO.Path))
			}
		}
	}
}

func TestTwoCrossingRecords(t *testing.T) {
	// Two lines crossing mid-domain: exactly two subdomains whose orders
	// are reversed; queries on both sides agree with direct evaluation.
	tbl := tinyTable(t, [2]float64{1, 0}, [2]float64{-1, 0.5})
	tree := build1D(t, tbl, verify.OneSignature)
	if tree.NumSubdomains() != 2 {
		t.Fatalf("subdomains = %d, want 2", tree.NumSubdomains())
	}
	pub := tree.Public()
	for _, xv := range []float64{-0.9, 0.1, 0.24, 0.26, 0.9} {
		q := query.NewTopK(geometry.Point{xv}, 1)
		ans, err := tree.Process(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
			t.Fatalf("x=%v: %v", xv, err)
		}
		want, err := query.Exec(tbl, funcs.AffineLine(0, 1), q)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Records[0].ID != want.Records[0].ID {
			t.Fatalf("x=%v: top-1 is record %d, oracle %d", xv, ans.Records[0].ID, want.Records[0].ID)
		}
	}
}

func TestIdenticalRecordsContent(t *testing.T) {
	// Two records with identical attributes (different IDs): they tie at
	// every x; the canonical order breaks ties by index and never swaps.
	tbl := tinyTable(t, [2]float64{1, 2}, [2]float64{1, 2}, [2]float64{0, 0})
	tree := build1D(t, tbl, verify.MultiSignature)
	pub := tree.Public()
	q := query.NewTopK(geometry.Point{0.5}, 2)
	ans, err := tree.Process(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
		t.Fatal(err)
	}
	if len(ans.Records) != 2 {
		t.Fatalf("got %d records", len(ans.Records))
	}
}

func TestStatsInvariants(t *testing.T) {
	tbl := lineTable(t, 40, 31)
	s := build1D(t, tbl, verify.MultiSignature).Stats()
	if s.Records != 40 {
		t.Error("record count wrong")
	}
	// IMH is a full binary tree over S leaves: 2S-1 nodes.
	if s.IMHNodes != 2*s.Subdomains-1 {
		t.Errorf("IMH nodes = %d for %d subdomains, want %d", s.IMHNodes, s.Subdomains, 2*s.Subdomains-1)
	}
	if s.Signatures != s.Subdomains {
		t.Error("multi-signature count mismatch")
	}
	// A forest of fresh lists would have exactly S*(2(n+2)-1) nodes (see
	// TestParallelBuildIdenticalND); the persistent chain shares
	// structure and strictly undercuts it.
	if literal := s.Subdomains * (2*(40+2) - 1); s.FMHNodes >= literal {
		t.Errorf("persistent forest has %d FMH nodes, should undercut the %d of from-scratch lists", s.FMHNodes, literal)
	}
	if s.ApproxBytes <= 0 || s.SignatureBytes <= 0 {
		t.Error("byte estimates missing")
	}
}

// TestWitnessFallbackOnTiedFloats builds a tree whose distinct exact
// breakpoints round to the same float or to adjacent floats: the line
// y = 0 crossed by six parallel lines y = 3x − b whose intercepts b are
// consecutive floats near 0.9, so the breakpoints b/3 lie 2/3 of an
// ulp apart. No float lies strictly inside those subdomains, so
// Space1D.WitnessAt falls back to the exact midpoint of the interval's
// exact ends (WitnessRat). That witness must lie strictly inside the
// exact interval, and every subdomain's list must be the exact sort of
// the functions at its witness.
func TestWitnessFallbackOnTiedFloats(t *testing.T) {
	rows := [][2]float64{{0, 0}}
	for b := 0.9; len(rows) < 7; b = math.Nextafter(b, 1) {
		rows = append(rows, [2]float64{3, -b})
	}
	tbl := tinyTable(t, rows...)
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		tree := build1D(t, tbl, mode)
		if tree.NumSubdomains() != len(rows) {
			t.Fatalf("%v: %d subdomains, want %d", mode, tree.NumSubdomains(), len(rows))
		}
		space := tree.itree.Space.(*itree.Space1D)
		n := tbl.Len()
		same, adjacent := 0, 0
		for id, si := range tree.subs {
			iv := si.Sub.Region.(itree.Interval1D)
			if next := math.Nextafter(iv.Lo, iv.Hi); iv.Lo == iv.Hi || next == iv.Hi {
				if iv.Lo == iv.Hi {
					same++
				} else {
					adjacent++
				}
				// No float fits: the witness is the exact midpoint.
				w := space.WitnessRat(si.Sub.Region)
				if w.Cmp(iv.LoRat()) <= 0 || w.Cmp(iv.HiRat()) >= 0 {
					t.Fatalf("%v: subdomain %d: witness %v outside (%v, %v)", mode, id, w, iv.LoRat(), iv.HiRat())
				}
			}
			got, err := si.List.Window(nil, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			want := funcs.SortAtRat(tree.fs, space.WitnessAt(si.Sub.Region))
			if !slices.Equal(got[1:n+1], want) {
				t.Fatalf("%v: subdomain %d list reads %v, the sort at its witness says %v", mode, id, got[1:n+1], want)
			}
		}
		if same == 0 || adjacent == 0 {
			t.Fatalf("%v: %d subdomains between equal floats and %d between adjacent ones; want both", mode, same, adjacent)
		}
	}
}
