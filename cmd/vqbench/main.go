// Command vqbench regenerates the paper's evaluation figures (Fig 5a-8b),
// this implementation's ablations and its per-plane figures, printing
// each as a markdown table and optionally writing CSVs. A figure whose
// identity column does not read "ok" is an error: vqbench exits 1.
//
// Usage:
//
//	vqbench [flags]
//
//	-figure id     run one figure (fig5a..fig8b, ablationA1, ablationA3,
//	               ablationA4, shardS1, planQ1); default runs all
//	-quick         scaled-down sweep (seconds instead of minutes)
//	-sizes list    comma-separated database sizes (default paper scale)
//	-qsizes list   comma-separated result sizes for Figs 6d/7/8a
//	-scheme name   signature scheme: rsa, dsa, ecdsa, ed25519, counting
//	-rsabits n     RSA modulus bits (default 1024 for sweep speed)
//	-density f     target subdomains per record (default 3)
//	-dist name     uniform|gaussian|correlated|anticorrelated|clustered
//	-reps n        queries averaged per data point
//	-seed n        workload seed
//	-workers n     construction worker pool per build (0 = one per CPU;
//	               default 1 keeps Fig 5b's timings single-threaded, as
//	               the paper's are; no other figure reads a clock)
//	-shards list   comma-separated domain-shard counts for the shardS1
//	               and planQ1 figures (default 1,2,4,8)
//	-csv dir       also write one CSV per figure into dir
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"aqverify/internal/bench"
	"aqverify/internal/sig"
	"aqverify/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vqbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		figureID = flag.String("figure", "", "run one figure by id (default: all)")
		quick    = flag.Bool("quick", false, "scaled-down sweep")
		sizes    = flag.String("sizes", "", "comma-separated database sizes")
		qsizes   = flag.String("qsizes", "", "comma-separated result sizes")
		scheme   = flag.String("scheme", "", "signature scheme")
		rsaBits  = flag.Int("rsabits", 0, "RSA modulus bits")
		density  = flag.Float64("density", 0, "subdomains per record")
		dist     = flag.String("dist", "", "attribute distribution")
		reps     = flag.Int("reps", 0, "queries per data point")
		seed     = flag.Int64("seed", 0, "workload seed")
		workers  = flag.Int("workers", 1, "construction worker pool per build (0 = one per CPU, 1 = the paper's serial Fig 5b timings)")
		shards   = flag.String("shards", "", "comma-separated shard counts for the sharding figures")
		csvDir   = flag.String("csv", "", "write CSVs into this directory")
	)
	flag.Parse()

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *sizes != "" {
		v, err := parseInts(*sizes)
		if err != nil {
			return fmt.Errorf("-sizes: %w", err)
		}
		cfg.Sizes = v
	}
	if *qsizes != "" {
		v, err := parseInts(*qsizes)
		if err != nil {
			return fmt.Errorf("-qsizes: %w", err)
		}
		cfg.QuerySizes = v
	}
	if *scheme != "" {
		cfg.Scheme = sig.Scheme(*scheme)
	}
	if *rsaBits != 0 {
		cfg.RSABits = *rsaBits
	}
	if *density != 0 {
		cfg.Density = *density
	}
	if *dist != "" {
		cfg.Dist = workload.Distribution(*dist)
	}
	if *reps != 0 {
		cfg.Reps = *reps
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers
	if *shards != "" {
		v, err := parseInts(*shards)
		if err != nil {
			return fmt.Errorf("-shards: %w", err)
		}
		cfg.ShardCounts = v
	}

	h, err := bench.NewHarness(cfg)
	if err != nil {
		return err
	}

	figures := bench.Figures()
	if *figureID != "" {
		f, err := bench.Lookup(*figureID)
		if err != nil {
			return err
		}
		figures = []bench.Figure{f}
	}

	for _, f := range figures {
		start := time.Now()
		tbl, err := f.Run(context.Background(), h)
		if err != nil {
			return fmt.Errorf("%s: %w", f.ID, err)
		}
		fmt.Println(tbl.Markdown())
		fmt.Printf("_(generated in %.1fs)_\n\n", time.Since(start).Seconds())
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*csvDir, f.ID+".csv")
			if err := os.WriteFile(path, []byte(tbl.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
