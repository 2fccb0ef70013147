// Command benchmark is the repository's benchmark: verified answers
// through the real stack — HTTP client -> vqfront -> one vqserve per
// shard -> tree walk -> wire encode -> network -> decode -> hash and
// signature verification — on four workloads, with end-to-end metrics
// from an untraced run and per-layer metrics, all taken from outside
// the library and the commands, from a traced one. BENCHMARK.json at
// the repository root is its contract; README.md in this directory is
// the catalogue of workloads and metrics and how they interact.
//
// Usage:
//
//	sh benchmark/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out file]
//	sh benchmark/run.sh --compare a.json b.json
//
// One invocation builds cmd/vqgen, cmd/vqserve and cmd/vqfront
// unmodified into .bench_build/bin, stands the stack up as child
// processes on free loopback ports, drives the workload from this one
// process, prints every metric by name with its unit, checks the
// outputs (every timed answer verified, a 1-in-64 sample compared with
// the brute-force oracle) and prints, as the last line of standard
// output, one JSON object: correct, attempted, failed and the metrics —
// the end-to-end ones with --trace 0, the per-layer ones with --trace 1.
// It exits nonzero when any op failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// output is the file --out writes: the environment the numbers belong
// to and one report per workload run.
type output struct {
	Env       env                `json:"env"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Workloads map[string]*report `json:"workloads"`
}

// env describes where the numbers were taken. Latencies are this
// machine's; counts and digests are not.
type env struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
}

func envOf(root string) env {
	e := env{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil { // a checkout need not be a git repository
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// findRoot locates the checkout: the directory holding cmd/vqserve,
// which is the working directory or its parent (run.sh starts the
// program inside benchmark/).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "vqserve", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no checkout around %s: cmd/vqserve not found", wd)
}

func run() error {
	var (
		workload = flag.String("workload", "all", "workload to run: point_open|batch_mixed|zipf_cached|republish|all")
		seed     = flag.Int64("seed", 1, "seed of the generated dataset and query sequences")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed windows, all five together")
		trace    = flag.Int("trace", 0, "1 = the traced pass: per-layer metrics and a span file instead of the end-to-end metrics")
		out      = flag.String("out", "", "also write the full report (env, digests, sample counts) to this file")
		compare  = flag.Bool("compare", false, "compare two --out files: -compare a.json b.json")
	)
	flag.Parse()
	root, err := findRoot()
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two report files")
		}
		return compareFiles(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	defs := workloads
	if *workload != "all" {
		def, ok := workloadByName(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		defs = []workloadDef{def}
	}

	// SIGINT/SIGTERM cancel the run; every path out of runWorkload stops
	// the children it started.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1,
		binDir: filepath.Join(root, ".bench_build", "bin"), outDir: filepath.Join(root, "benchmark", "out"),
		records: numRecords, queries: mixedQueries}
	if err := buildStack(ctx, root, cfg.binDir); err != nil {
		return err
	}
	o := output{Env: envOf(root), Seed: *seed, Seconds: *seconds, Trace: cfg.trace, Workloads: map[string]*report{}}
	failed := false
	for _, def := range defs {
		rep, err := runWorkload(ctx, cfg, def)
		if err != nil {
			return fmt.Errorf("%s: %w", def.Name, err)
		}
		o.Workloads[def.Name] = rep
		failed = failed || !rep.correct()
	}
	if *out != "" {
		b, err := json.MarshalIndent(o, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, def := range defs {
		printReport(o.Workloads[def.Name])
	}
	if failed {
		return fmt.Errorf("ops failed; see first_error above")
	}
	return nil
}

// printReport prints every metric by name with its unit, then the
// result line the driver reads.
func printReport(rep *report) {
	defs, vals := endToEnd, rep.EndToEnd
	if rep.PerLayer != nil {
		defs, vals = perLayer, rep.PerLayer
	}
	fmt.Printf("== %s: inputs %.12s answers %.12s, %d ops attempted, %d failed, %d checked against the oracle, p%g over %d samples (%d beyond)\n",
		rep.Workload, rep.Info.InputsSHA256, rep.Info.AnswersSHA256, rep.Info.Attempted, rep.Info.Failed,
		rep.Info.OracleChecked, rep.Info.TailPercentile, rep.Info.Samples, rep.Info.TailBeyond)
	fmt.Printf("   as measured, host slowdown %.3f: %.4f ops/s, p50 %.4f ms, %.4f us CPU per op, set-ups %.3f s (slowdown %.3f)\n",
		rep.Info.HostSlowdown, rep.Info.RawOpsPerS, rep.Info.RawOpP50MS, rep.Info.RawCPUUSPerOp,
		rep.Info.SetupRunsS, rep.Info.SetupSlowdowns)
	fmt.Printf("   per window: %.1f ops/s, host slowdown %.2f\n", rep.Info.WindowOpsPerS, rep.Info.WindowHost)
	if rep.Info.FirstError != "" {
		fmt.Printf("   first error: %s\n", rep.Info.FirstError)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct(), rep.Info.Attempted, rep.Info.Failed, map[string]metric{}}
	for _, d := range defs {
		fmt.Printf("   %-32s %14.4f %s\n", d.Name, vals[d.Name], d.Unit)
		line.Metrics[d.Name] = metric{vals[d.Name], d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // floats and strings only; NaN would be a bug in the reduction
	}
	fmt.Println(string(b))
}
