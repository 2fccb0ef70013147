// Command vqgen generates the synthetic datasets used by the benchmarks
// and examples, writing them as CSV so they can be inspected or consumed
// by external tooling.
//
// Usage:
//
//	vqgen -kind lines|points|applicants|patients [-n records] [-dim d]
//	      [-dist name] [-density f] [-seed n] [-o file] [-plan K]
//	      [-outsource -artifact dir [-mode one|multi] [-keyseed n]
//	       [-shards K] [-shardaxis d] [-planner even|quantile] [-workers w]]
//
// The first output line is a comment with the generated query domain.
//
// -plan K previews, on stderr, where the build plane's shard planners
// would cut the generated domain into K shards — the even cuts next to
// the breakpoint-quantile cuts — so an owner can judge the dataset's
// skew before outsourcing it (vqserve -shards K -planner quantile uses
// the same planner and derives the same cuts from the same data).
//
// -outsource runs the owner's build offline — sign the generated
// dataset under each kind's standard template and save the result as an
// on-disk artifact (internal/artifact, docs/ARTIFACT.md) at -artifact
// dir, ready for vqserve -load to boot from in milliseconds. The CSV
// still goes to -o when given; without -o, -outsource skips the CSV (the
// artifact is the product). A nonzero -keyseed derives the signing key
// deterministically, as in vqserve.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"aqverify/internal/artifact"
	"aqverify/internal/build"
	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/record"
	"aqverify/internal/sig"
	"aqverify/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vqgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		kind    = flag.String("kind", "lines", "dataset kind: lines|points|applicants|patients")
		n       = flag.Int("n", 1000, "record count")
		dim     = flag.Int("dim", 2, "attribute count (points only)")
		dist    = flag.String("dist", "gaussian", "attribute distribution")
		density = flag.Float64("density", workload.DefaultDensity, "subdomains per record (lines only)")
		seed    = flag.Int64("seed", 1, "generator seed")
		out     = flag.String("o", "", "output file (default stdout)")
		plan    = flag.Int("plan", 0, "preview the even and quantile shard cuts for this shard count on stderr")

		outsource  = flag.Bool("outsource", false, "build and sign the dataset offline and save it as an artifact at -artifact")
		artDir     = flag.String("artifact", "", "artifact output directory (with -outsource)")
		modeStr    = flag.String("mode", "one", "IFMH signing mode: one|multi (with -outsource)")
		scheme     = flag.String("scheme", "ed25519", "signature scheme (with -outsource)")
		keySeed    = flag.Int64("keyseed", 0, "derive the signing key deterministically from this seed (0 = fresh random key)")
		shards     = flag.Int("shards", 1, "build a K-shard set instead of one tree (with -outsource)")
		shardAx    = flag.Int("shardaxis", 0, "domain axis the shard cuts are perpendicular to")
		plannerStr = flag.String("planner", "even", "shard-cut planner: even|quantile (with -shards)")
		workers    = flag.Int("workers", 0, "construction worker pool size (0 = one per CPU, 1 = serial)")
	)
	flag.Parse()

	if *outsource && *artDir == "" {
		return fmt.Errorf("-outsource needs -artifact dir to save the build into")
	}
	if *artDir != "" && !*outsource {
		return fmt.Errorf("-artifact only applies with -outsource")
	}

	var (
		tbl record.Table
		dom geometry.Box
		err error
	)
	switch *kind {
	case "lines":
		tbl, dom, err = workload.Lines(workload.LinesConfig{
			N: *n, Seed: *seed, Dist: workload.Distribution(*dist), Density: *density,
		})
	case "points":
		tbl, dom, err = workload.Points(workload.PointsConfig{
			N: *n, Dim: *dim, Seed: *seed, Dist: workload.Distribution(*dist),
		})
	case "applicants":
		tbl, dom, err = workload.Applicants(*n, *seed)
	case "patients":
		tbl, dom, err = workload.RiskPatients(*n, *seed)
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		return err
	}

	if *plan > 1 {
		if err := previewPlans(tbl, dom, *kind, *dim, *plan); err != nil {
			return err
		}
	}

	if *outsource {
		err := outsourceArtifact(tbl, dom, *kind, *dim, *artDir, *modeStr, *scheme, *plannerStr, *keySeed, *shards, *shardAx, *workers)
		if err != nil {
			return err
		}
		if *out == "" {
			return nil // the artifact is the product; no CSV asked for
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return workload.WriteCSV(w, tbl, dom)
}

// outsourceArtifact runs the owner's offline build — exactly what a
// vqserve started on this dataset would build — and saves it as an
// on-disk artifact, reporting the content hash on stderr.
func outsourceArtifact(tbl record.Table, dom geometry.Box, kind string, dim int,
	dir, modeStr, scheme, plannerStr string, keySeed int64, shards, shardAx, workers int) error {
	sigOpt := sig.Options{}
	if keySeed != 0 {
		sigOpt.Rand = sig.DeterministicRand(keySeed)
	}
	signer, err := sig.NewSigner(sig.Scheme(scheme), sigOpt)
	if err != nil {
		return err
	}
	mode := core.OneSignature
	switch modeStr {
	case "one":
	case "multi":
		mode = core.MultiSignature
	default:
		return fmt.Errorf("unknown mode %q (want one or multi)", modeStr)
	}
	opts := []build.Option{build.WithMode(mode), build.WithWorkers(workers)}
	if shards > 1 {
		planner := build.EvenCuts
		switch plannerStr {
		case "even":
		case "quantile":
			planner = build.QuantileCuts
		default:
			return fmt.Errorf("unknown planner %q (want even or quantile)", plannerStr)
		}
		opts = append(opts, build.WithShards(shards, shardAx), build.WithPlanner(planner))
	}
	start := time.Now()
	res, err := build.Outsource(context.Background(),
		build.Spec{Table: tbl, Template: templateFor(kind, dim), Domain: dom, Signer: signer}, opts...)
	if err != nil {
		return err
	}
	info, err := artifact.Save(dir, res)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "vqgen: saved %s artifact %.12s (%d record(s), %d shard(s), %s, epoch %d) to %s in %v\n",
		info.Kind, info.HashHex(), tbl.Len(), info.Shards, info.Public.Mode, info.Epoch, dir,
		time.Since(start).Round(time.Millisecond))
	return nil
}

// previewPlans prints, on stderr, where each build-plane planner would
// cut the generated domain for k shards, under the same template each
// kind's real deployment uses — the cuts must match what a vqserve
// started on this dataset derives. The spec carries no signer —
// planners never sign anything.
func previewPlans(tbl record.Table, dom geometry.Box, kind string, dim, k int) error {
	spec := build.Spec{Table: tbl, Template: templateFor(kind, dim), Domain: dom}
	for _, pl := range []struct {
		name string
		p    build.Planner
	}{{"even", build.EvenCuts}, {"quantile", build.QuantileCuts}} {
		plan, err := pl.p(context.Background(), build.PlanRequest{Spec: spec, K: k})
		if err != nil {
			return fmt.Errorf("planner %s: %w", pl.name, err)
		}
		fmt.Fprintf(os.Stderr, "plan %-8s axis=%d cuts=%v\n", pl.name, plan.Axis, plan.Cuts)
	}
	return nil
}

// templateFor is each kind's standard utility-function template — the
// one its real deployment serves under (vqserve, the examples), so the
// offline build and the cut preview match what a server would derive.
func templateFor(kind string, dim int) funcs.Template {
	switch kind {
	case "points":
		return funcs.ScalarProduct(dim)
	case "applicants":
		// The derived w_slope/w_base columns (see workload.Applicants and
		// examples/admissions).
		return funcs.AffineLine(3, 4)
	case "patients":
		// Two-factor risk weights (see examples/riskscore).
		return funcs.ScalarProduct(2)
	default: // lines
		return funcs.AffineLine(0, 1)
	}
}
