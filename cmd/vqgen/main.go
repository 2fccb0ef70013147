// Command vqgen is the data owner's tool: it generates the synthetic
// datasets used by the benchmarks and examples, writing them as CSV so
// they can be inspected or consumed by external tooling, and — with
// -outsource — builds, signs and saves a dataset as the artifact the
// cloud serves. It is the only command that holds a signing key.
//
// Usage:
//
//	vqgen -kind lines|points|applicants|patients [-n records] [-dim d]
//	      [-dist name] [-density f] [-seed n] [-o file] [-plan K]
//	      [-data file.csv [-slopecol i] [-biascol j]]
//	      [-outsource -artifact dir [-mode one|multi] [-keyseed n]
//	       [-shards K] [-shardaxis d] [-planner even|quantile] [-workers w]]
//
// The first output line is a comment with the generated query domain.
//
// -data file.csv reads the table and its domain from a CSV in this
// command's own output format instead of generating one, interpreted
// under the affine-line template over columns -slopecol and -biascol —
// how an owner outsources a real dataset.
//
// -plan K previews, on stderr, where the build plane's shard planners
// would cut the domain into K shards — the even cuts next to the
// breakpoint-quantile cuts — so an owner can judge the dataset's skew
// before outsourcing it (-outsource -shards K -planner quantile uses the
// same planner and derives the same cuts from the same data).
//
// -outsource runs the owner's build — sign the dataset under its
// template and save the result as an on-disk artifact
// (internal/artifact, docs/ARTIFACT.md) at -artifact dir, ready for
// vqserve -load to boot from in milliseconds; with -shards K the
// artifact is a K-shard set that vqserve -load serves whole or one
// -shard i per process. Like every build it is in canonical order (under
// the default shape seed, 0), so the artifact is a function of the
// table, the mode, the plan and the key alone, and build.Apply on such a
// build is incremental. The CSV still goes to -o when given; without
// -o, -outsource skips the CSV (the artifact is the product). A nonzero
// -keyseed derives the signing key deterministically (demo/testing
// convenience — never protect real data with a 64-bit key seed).
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
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vqgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vqgen", flag.ExitOnError)
	var (
		kind    = fs.String("kind", "lines", "dataset kind: lines|points|applicants|patients")
		n       = fs.Int("n", 1000, "record count")
		dim     = fs.Int("dim", 2, "attribute count (points only)")
		dist    = fs.String("dist", "gaussian", "attribute distribution")
		density = fs.Float64("density", workload.DefaultDensity, "subdomains per record (lines only)")
		seed    = fs.Int64("seed", 1, "generator seed")
		out     = fs.String("o", "", "output file (default stdout)")
		plan    = fs.Int("plan", 0, "preview the even and quantile shard cuts for this shard count on stderr")

		dataPath = fs.String("data", "", "read the table from a CSV dataset (this command's format) instead of generating one")
		slopeCol = fs.Int("slopecol", 0, "attribute index of the slope column (with -data)")
		biasCol  = fs.Int("biascol", 1, "attribute index of the intercept column (with -data)")

		outsource  = fs.Bool("outsource", false, "build and sign the dataset and save it as an artifact at -artifact")
		artDir     = fs.String("artifact", "", "artifact output directory (with -outsource)")
		modeStr    = fs.String("mode", "one", "IFMH signing mode: one|multi (with -outsource)")
		scheme     = fs.String("scheme", "ed25519", "signature scheme (with -outsource)")
		keySeed    = fs.Int64("keyseed", 0, "derive the signing key deterministically from this seed (0 = fresh random key)")
		shards     = fs.Int("shards", 1, "build a K-shard set instead of one tree (with -outsource)")
		shardAx    = fs.Int("shardaxis", 0, "domain axis the shard cuts are perpendicular to")
		plannerStr = fs.String("planner", "even", "shard-cut planner: even|quantile (with -shards)")
		workers    = fs.Int("workers", 0, "construction worker pool size (0 = one per CPU, 1 = serial)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *outsource && *artDir == "" {
		return fmt.Errorf("-outsource needs -artifact dir to save the build into")
	}
	if *artDir != "" && !*outsource {
		return fmt.Errorf("-artifact only applies with -outsource")
	}
	var mode core.Mode
	switch *modeStr {
	case "one":
		mode = core.OneSignature
	case "multi":
		mode = core.MultiSignature
	default:
		return fmt.Errorf("unknown mode %q (want one or multi)", *modeStr)
	}
	var planner build.Planner
	switch *plannerStr {
	case "even":
		planner = build.EvenCuts
	case "quantile":
		planner = build.QuantileCuts
	default:
		return fmt.Errorf("unknown planner %q (want even or quantile)", *plannerStr)
	}

	var (
		tbl record.Table
		dom geometry.Box
		err error
	)
	tpl := templateFor(*kind, *dim)
	switch {
	case *dataPath != "":
		f, err := os.Open(*dataPath)
		if err != nil {
			return err
		}
		tbl, dom, err = workload.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		tpl = funcs.AffineLine(*slopeCol, *biasCol)
	case *kind == "lines":
		tbl, dom, err = workload.Lines(workload.LinesConfig{
			N: *n, Seed: *seed, Dist: workload.Distribution(*dist), Density: *density,
		})
	case *kind == "points":
		tbl, dom, err = workload.Points(workload.PointsConfig{
			N: *n, Dim: *dim, Seed: *seed, Dist: workload.Distribution(*dist),
		})
	case *kind == "applicants":
		tbl, dom, err = workload.Applicants(*n, *seed)
	case *kind == "patients":
		tbl, dom, err = workload.RiskPatients(*n, *seed)
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		return err
	}

	if *plan > 1 {
		if err := previewPlans(tbl, dom, tpl, *plan); err != nil {
			return err
		}
	}

	if *outsource {
		sigOpt := sig.Options{}
		if *keySeed != 0 {
			sigOpt.Rand = sig.DeterministicRand(*keySeed)
		}
		signer, err := sig.NewSigner(sig.Scheme(*scheme), sigOpt)
		if err != nil {
			return err
		}
		opts := []build.Option{build.WithMode(mode), build.WithWorkers(*workers)}
		if *shards > 1 {
			opts = append(opts, build.WithShards(*shards, *shardAx), build.WithPlanner(planner))
		}
		spec := build.Spec{Table: tbl, Template: tpl, Domain: dom, Signer: signer}
		if err := outsourceArtifact(spec, *artDir, opts); err != nil {
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

// outsourceArtifact runs the owner's build and saves it as an on-disk
// artifact, reporting the content hash on stderr.
func outsourceArtifact(spec build.Spec, dir string, opts []build.Option) error {
	start := time.Now()
	res, err := build.Outsource(context.Background(), spec, opts...)
	if err != nil {
		return err
	}
	info, err := artifact.Save(dir, res)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "vqgen: saved %s artifact %.12s (%d record(s), %d shard(s), %s, epoch %d) to %s in %v\n",
		info.Kind, info.HashHex(), spec.Table.Len(), info.Shards, info.Public.Mode, info.Epoch, dir,
		time.Since(start).Round(time.Millisecond))
	return nil
}

// previewPlans prints, on stderr, where each build-plane planner would
// cut the domain for k shards under the template the dataset is
// outsourced with — the cuts -outsource -shards k derives. The spec
// carries no signer — planners never sign anything.
func previewPlans(tbl record.Table, dom geometry.Box, tpl funcs.Template, k int) error {
	spec := build.Spec{Table: tbl, Template: tpl, Domain: dom}
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
// one its example deployment verifies under — shared by the build and
// the cut preview.
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
