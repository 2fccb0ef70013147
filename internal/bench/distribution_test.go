package bench

import "testing"

func TestAblationDistributions(t *testing.T) {
	h := quickHarness(t)
	tbl := runFig(t, h, "ablationA3")
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want one per distribution", len(tbl.Rows))
	}
	for r := range tbl.Rows {
		if cell(t, tbl, r, 1) < 2 {
			t.Errorf("row %d: implausible subdomain count", r)
		}
		if cell(t, tbl, r, 3) <= 0 {
			t.Errorf("row %d: no search nodes recorded", r)
		}
	}
}

func TestAblationDimensions(t *testing.T) {
	h := quickHarness(t)
	tbl := runFig(t, h, "ablationA4")
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 dimensions", len(tbl.Rows))
	}
	// The arrangement must grow with d while per-query traversal stays
	// within a small constant factor — the asymmetry the paper designs
	// around.
	subs2, subs3 := cell(t, tbl, 1, 1), cell(t, tbl, 2, 1)
	if subs3 <= subs2*2 {
		t.Errorf("subdomains should grow sharply with d: d=2 %v, d=3 %v", subs2, subs3)
	}
	nodes1, nodes3 := cell(t, tbl, 0, 3), cell(t, tbl, 2, 3)
	if nodes3 > nodes1*4 {
		t.Errorf("search traversal should stay modest across d: %v vs %v", nodes1, nodes3)
	}
}
