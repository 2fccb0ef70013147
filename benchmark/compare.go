package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// contract is the part of BENCHMARK.json the comparison reads.
type contract struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []contractMetric             `json:"end_to_end"`
	PerLayer  []contractMetric             `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worsening is how much worse b is than a, as a share of a: positive
// when the metric moved against its better direction.
func worsening(better string, a, b float64) float64 {
	if better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// errRegression makes the comparison exit 1, like apidiff.sh and
// lint.sh do on a finding.
var errRegression = fmt.Errorf("compare: a metric is past its bound or an op failed")

// compareFiles prints, per (workload, end-to-end metric) present in
// both reports, both values, the relative change and the bound from
// BENCHMARK.json. It fails when any metric of b is worse than a's by
// more than its bound, or either report has a failed op.
func compareFiles(w io.Writer, contractPath, pathA, pathB string) error {
	var c contract
	var a, b output
	if err := readJSON(contractPath, &c); err != nil {
		return err
	}
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	bad := false
	fmt.Fprintf(w, "%-12s %-18s %14s %14s %8s %6s\n", "workload", "metric", "a", "b", "worse", "bound")
	for _, wl := range c.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil || ra.EndToEnd == nil || rb.EndToEnd == nil {
			continue
		}
		for _, m := range c.EndToEnd {
			worse := worsening(m.Better, ra.EndToEnd[m.Name], rb.EndToEnd[m.Name])
			mark := ""
			if worse > m.Bound {
				mark, bad = "  PAST BOUND", true
			}
			fmt.Fprintf(w, "%-12s %-18s %14.4f %14.4f %+7.1f%% %5.0f%%%s\n",
				wl.Name, m.Name, ra.EndToEnd[m.Name], rb.EndToEnd[m.Name], 100*worse, 100*m.Bound, mark)
		}
		for side, r := range map[string]*report{"a": ra, "b": rb} {
			if r.Info.FailedShare != 0 || r.Info.Attempted == 0 {
				fmt.Fprintf(w, "%-12s failed_share %.6f in %s (%d of %d)  FAILED\n", wl.Name, r.Info.FailedShare, side, r.Info.Failed, r.Info.Attempted)
				bad = true
			}
		}
		if ra.Info.InputsSHA256 == rb.Info.InputsSHA256 && ra.Info.AnswersSHA256 != rb.Info.AnswersSHA256 {
			fmt.Fprintf(w, "%-12s answers_sha256 differs on equal inputs: %.12s vs %.12s  IDENTITY BROKEN\n", wl.Name, ra.Info.AnswersSHA256, rb.Info.AnswersSHA256)
			bad = true
		}
	}
	if bad {
		return errRegression
	}
	return nil
}
