package workload

import (
	"context"
	"math"
	"testing"

	"aqverify/internal/funcs"
	"aqverify/internal/itree"
	"aqverify/internal/query"
)

func TestLinesGeneratesValidTables(t *testing.T) {
	for _, dist := range Distributions() {
		dist := dist
		t.Run(string(dist), func(t *testing.T) {
			tbl, dom, err := Lines(LinesConfig{N: 200, Seed: 1, Dist: dist})
			if err != nil {
				t.Fatal(err)
			}
			if tbl.Len() != 200 {
				t.Fatalf("Len = %d", tbl.Len())
			}
			if dom.Dim() != 1 || dom.Lo[0] >= dom.Hi[0] {
				t.Fatalf("bad domain %+v", dom)
			}
			for _, r := range tbl.Records {
				if len(r.Attrs) != 2 {
					t.Fatal("line records need slope and intercept")
				}
			}
		})
	}
}

func TestLinesDeterministic(t *testing.T) {
	a, da, err := Lines(LinesConfig{N: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, db, err := Lines(LinesConfig{N: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		if !a.Records[i].Equal(b.Records[i]) {
			t.Fatal("same seed produced different records")
		}
	}
	if da.Lo[0] != db.Lo[0] || da.Hi[0] != db.Hi[0] {
		t.Fatal("same seed produced different domains")
	}
	c, _, err := Lines(LinesConfig{N: 50, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Records {
		if !a.Records[i].Equal(c.Records[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical tables")
	}
}

func TestDensityControlsSubdomains(t *testing.T) {
	// The in-domain subdomain count should land within a factor of ~2.5
	// of density*n (the window is sized from a sampled quantile).
	for _, density := range []float64{1, 3, 6} {
		tbl, dom, err := Lines(LinesConfig{N: 400, Seed: 3, Density: density})
		if err != nil {
			t.Fatal(err)
		}
		fs, err := funcs.AffineLine(0, 1).InterpretTable(tbl)
		if err != nil {
			t.Fatal(err)
		}
		inters, err := itree.Pairs1DCtx(context.Background(), fs, dom)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(len(inters))
		want := density * 400
		if got < want/2.5 || got > want*2.5 {
			t.Errorf("density %v: %v in-domain intersections, want ~%v", density, got, want)
		}
	}
}

func TestLinesRejectsEmpty(t *testing.T) {
	if _, _, err := Lines(LinesConfig{N: 0}); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestPoints(t *testing.T) {
	for _, dist := range Distributions() {
		tbl, dom, err := Points(PointsConfig{N: 100, Dim: 3, Seed: 2, Dist: dist})
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		if tbl.Len() != 100 || tbl.Schema.Arity() != 3 || dom.Dim() != 3 {
			t.Fatalf("%v: bad shape", dist)
		}
		for _, r := range tbl.Records {
			for _, a := range r.Attrs {
				if a <= 0 || a > 1 {
					t.Fatalf("%v: attribute %v outside (0,1]", dist, a)
				}
			}
		}
	}
	if _, _, err := Points(PointsConfig{N: 0, Dim: 2}); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestRangesHitTargetSize(t *testing.T) {
	tbl, dom, err := Lines(LinesConfig{N: 300, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tpl := funcs.AffineLine(0, 1)
	qs, err := Ranges(tbl, tpl, dom, QueryConfig{Count: 20, Seed: 5, ResultSize: 25})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		res, err := query.Exec(tbl, tpl, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != 25 {
			t.Errorf("query %d: result size %d, want 25", i, len(res.Records))
		}
	}
}

func TestRangesRejectsOversizedTarget(t *testing.T) {
	tbl, dom, err := Lines(LinesConfig{N: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Ranges(tbl, funcs.AffineLine(0, 1), dom, QueryConfig{Count: 1, ResultSize: 11}); err == nil {
		t.Error("oversized target accepted")
	}
}

func TestTopKAndKNNGenerators(t *testing.T) {
	tbl, dom, err := Lines(LinesConfig{N: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	tpl := funcs.AffineLine(0, 1)
	for _, q := range TopK(dom, QueryConfig{Count: 10, Seed: 7, K: 5}) {
		if q.Kind != query.TopK || q.K != 5 || !dom.Contains(q.X) {
			t.Fatalf("bad top-k query %+v", q)
		}
	}
	ks, err := KNN(tbl, tpl, dom, QueryConfig{Count: 10, Seed: 8, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ks {
		if q.Kind != query.KNN || q.K != 4 || !dom.Contains(q.X) || math.IsNaN(q.Y) {
			t.Fatalf("bad knn query %+v", q)
		}
	}
}

func TestApplicants(t *testing.T) {
	tbl, dom, err := Applicants(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 50 || tbl.Schema.Arity() != 5 || dom.Dim() != 1 {
		t.Fatal("bad applicants shape")
	}
	for _, r := range tbl.Records {
		gpa, awards, papers := r.Attrs[0], r.Attrs[1], r.Attrs[2]
		if gpa < 2 || gpa > 4 || awards < 0 || awards > 10 || papers < 0 || papers > 20 {
			t.Fatalf("attributes out of range: %v", r.Attrs)
		}
		// Derived columns must be consistent.
		if r.Attrs[3] != awards || r.Attrs[4] != gpa+0.5*papers {
			t.Fatal("derived columns inconsistent")
		}
		if len(r.Payload) == 0 {
			t.Fatal("missing applicant name payload")
		}
	}
}

func TestRiskPatients(t *testing.T) {
	tbl, dom, err := RiskPatients(80, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 80 || tbl.Schema.Arity() != 2 || dom.Dim() != 2 {
		t.Fatal("bad patients shape")
	}
	for _, r := range tbl.Records {
		for _, a := range r.Attrs {
			if a < 0 || a > 10 {
				t.Fatalf("factor %v outside [0,10]", a)
			}
		}
	}
}
