package bench

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.csv from this run instead of comparing")

// TestEveryFigure runs all of Figures() through the engine on the
// shared harness. A figure whose identity column reads anything but
// "ok" returns an error, so a nil error here is the identity check for
// the three figures that carry one.
func TestEveryFigure(t *testing.T) {
	h := quickHarness(t)
	verdicts := 0
	for _, f := range Figures() {
		tbl := runFig(t, h, f.ID)
		if tbl.ID != f.ID || tbl.Title == "" {
			t.Errorf("%s: table id %q, title %q", f.ID, tbl.ID, tbl.Title)
		}
		for r, row := range tbl.Rows {
			if len(row) != len(tbl.Columns) {
				t.Errorf("%s row %d: %d cells for %d columns", f.ID, r, len(row), len(tbl.Columns))
			}
		}
		if f.identity != "" {
			verdicts++
			if !slices.Contains(tbl.Columns, f.identity) {
				t.Errorf("%s: identity column %q is not among %v", f.ID, f.identity, tbl.Columns)
			}
		}
	}
	if len(Figures()) != 19 || verdicts != 3 {
		t.Errorf("%d figures, %d with an identity column; want 19 and 3", len(Figures()), verdicts)
	}
}

// TestVerdictFailsFigure pins the engine's side of the identity
// contract with a stub row: a verdict other than "ok" is the figure's
// error, not a printed cell.
func TestVerdictFailsFigure(t *testing.T) {
	h := quickHarness(t)
	stub := Figure{
		ID: "stub", Title: "stub", columns: []string{"n", "identity"}, identity: "identity",
		sweep:    func(*Config) []point { return grid([]int{7}, nil) },
		fixtures: func(point) []fixture { return nil },
		row: func(_ context.Context, _ *Harness, p point, _ []*built) ([]string, error) {
			return []string{fmtInt(p.n), identical(nil, nil, nil, nil)}, nil
		},
	}
	if tbl, err := stub.Run(context.Background(), h); err != nil || len(tbl.Rows) != 1 {
		t.Fatalf("two empty answer sets are identical: %v", err)
	}
	stub.row = func(context.Context, *Harness, point, []*built) ([]string, error) {
		return []string{"7", "MISMATCH"}, nil
	}
	_, err := stub.Run(context.Background(), h)
	if err == nil || !strings.Contains(err.Error(), "stub n=7 k=0") || !strings.Contains(err.Error(), "MISMATCH") {
		t.Fatalf("a MISMATCH verdict must fail the figure and name the point; got %v", err)
	}
}

// TestGoldenCSVs pins every figure but Fig 5b — the one that reads a
// clock — byte for byte at QuickConfig. The cells are counts, and Figs
// 7b-7d counts at the shared harness's fixed prices, so they depend on
// the workload seed and not on the host, the worker count or the
// signing key. The ten goldens that predate the engine hold what the
// hand-rolled runners printed; `go test ./internal/bench -run Golden
// -update` regenerates them all.
func TestGoldenCSVs(t *testing.T) {
	h := quickHarness(t)
	t.Cleanup(func() { clear(tables) })
	for _, f := range Figures() {
		if f.ID == "fig5b" {
			continue
		}
		got := runFig(t, h, f.ID).CSV()
		path := filepath.Join("testdata", f.ID+".csv")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s drifted from %s:\n--- got\n%s--- want\n%s", f.ID, path, got, want)
		}
	}
}
