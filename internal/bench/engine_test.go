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

// TestEveryFigure runs all of Figures() through the engine at a tiny
// config. A figure whose identity column reads anything but "ok"
// returns an error, so a nil error here is the identity check for the
// eight figures that carry one — seven of which no other test runs.
func TestEveryFigure(t *testing.T) {
	cfg := QuickConfig()
	cfg.Sizes, cfg.QuerySizes, cfg.AblationSizes = []int{100, 200}, []int{50, 100}, []int{100, 200}
	cfg.ShardCounts, cfg.Reps = []int{1, 2}, 4
	h, err := NewHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := 0
	for _, f := range Figures() {
		tbl, err := f.Run(context.Background(), h)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		if tbl.ID != f.ID || tbl.Title == "" || len(tbl.Rows) == 0 {
			t.Errorf("%s: table id %q, title %q, %d rows", f.ID, tbl.ID, tbl.Title, len(tbl.Rows))
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
	if len(Figures()) != 20 || verdicts != 4 {
		t.Errorf("%d figures, %d with an identity column; want 20 and 4", len(Figures()), verdicts)
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

// TestGoldenCSVs pins the deterministic figures — the paper's counted
// costs and ablation A1's closed-form comparison, which depend on the
// workload seed and not on the host or the signing key — byte for byte
// at QuickConfig. For the paper figures testdata holds what the
// hand-rolled runners printed before the engine replaced them;
// `go test ./internal/bench -run Golden -update` regenerates it.
func TestGoldenCSVs(t *testing.T) {
	h := quickHarness(t)
	for _, id := range []string{"fig5a", "fig5c", "fig6a", "fig6b", "fig6c", "fig6d", "fig7a", "fig8a", "fig8b", "ablationA1"} {
		got := runFig(t, h, id).CSV()
		path := filepath.Join("testdata", id+".csv")
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
			t.Errorf("%s drifted from %s:\n--- got\n%s--- want\n%s", id, path, got, want)
		}
	}
}
