// Benchmarks regenerating the evaluation, one sub-benchmark of
// BenchmarkFigure per table/figure (see EXPERIMENTS.md for the
// paper-vs-measured record), plus micro-benchmarks of the hot paths.
// Each figure benchmark runs its full sweep at the quick scale; absolute
// numbers are machine-specific but the series shapes mirror the paper.
// Run the paper-scale sweep with cmd/vqbench instead.
package aqverify_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"aqverify"
	"aqverify/internal/artifact"
	"aqverify/internal/backend"
	"aqverify/internal/bench"
	"aqverify/internal/metrics"
	"aqverify/internal/server"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
)

// BenchmarkFigure regenerates every entry of bench.Figures() as its own
// sub-benchmark (go test -bench 'Figure/fig6a$'), so a figure added to
// the catalogue is benchmarked without a wrapper being written for it.
// One harness serves them all: structures are built on a figure's first
// iteration and shared from then on.
func BenchmarkFigure(b *testing.B) {
	h, err := bench.NewHarness(bench.QuickConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range bench.Figures() {
		b.Run(f.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tbl, err := f.Run(context.Background(), h)
				if err != nil {
					b.Fatal(err)
				}
				if len(tbl.Rows) == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// Micro-benchmarks of the hot paths behind the figures.

// lineSpec is the build spec every micro-benchmark outsources: the
// Lines workload under the (slope, intercept) template.
func lineSpec(tbl aqverify.Table, dom aqverify.Box, signer aqverify.Signer) aqverify.BuildSpec {
	return aqverify.BuildSpec{Table: tbl, Template: aqverify.AffineLine(0, 1), Domain: dom, Signer: signer}
}

func buildFixture(b *testing.B, n int, mode aqverify.Mode) (*aqverify.Tree, aqverify.Box) {
	b.Helper()
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: n, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	signer, err := aqverify.NewSigner(aqverify.Ed25519, aqverify.SignerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := aqverify.Outsource(context.Background(), lineSpec(tbl, dom, signer),
		aqverify.WithMode(mode), aqverify.WithShuffle(0))
	if err != nil {
		b.Fatal(err)
	}
	return res.Tree, dom
}

func BenchmarkBuildIFMH1000(b *testing.B) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	signer, err := aqverify.NewSigner(aqverify.Ed25519, aqverify.SignerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	spec, ctx := lineSpec(tbl, dom, signer), context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aqverify.Outsource(ctx, spec, aqverify.WithShuffle(0)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProcessTopK(b *testing.B) {
	tree, dom := buildFixture(b, 1000, aqverify.OneSignature)
	x := aqverify.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	q := aqverify.NewTopK(x, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Process(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// workerCounts is the serial-vs-parallel sweep of the scaling
// benchmarks: 1 worker and one per CPU (deduplicated on 1-CPU hosts).
func workerCounts() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkBuildParallel measures the one build whose list stage is
// parallel per list: a bivariate multi-signature build, whose S = 256
// subdomains are each sorted at a witness and given a from-scratch
// FMH-tree and a signature, independently — serial (Workers=1) versus
// one worker per CPU. The LP-backed I-tree stage before them is serial
// and about four fifths of this build, so the two lines differ by at
// most the remaining fifth. Compare the workers=1 and workers=N lines:
//
//	go test -bench BenchmarkBuildParallel -benchtime 3x
func BenchmarkBuildParallel(b *testing.B) {
	tbl, dom, err := workload.Points(workload.PointsConfig{N: 24, Dim: 2, Seed: 1, Dist: workload.AntiCorrelated})
	if err != nil {
		b.Fatal(err)
	}
	signer, err := aqverify.NewSigner(aqverify.Ed25519, aqverify.SignerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	spec := aqverify.BuildSpec{Table: tbl, Template: aqverify.ScalarProduct(2), Domain: dom, Signer: signer}
	ctx := context.Background()
	for _, workers := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := aqverify.Outsource(ctx, spec,
					aqverify.WithMode(aqverify.MultiSignature), aqverify.WithBuildWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOutsourceParallel measures the unified build plane end to
// end — one Outsource call covering the parallelized pair enumeration,
// sweep plan, FMH builds, level-parallel hash propagation and signing —
// serial (workers=1) versus one worker per CPU. Unlike
// BenchmarkBuildParallel (bivariate, one independent list per
// subdomain), this is a univariate build: its list stage is one serial
// chain, so the pair, sweep and propagation stages carry the speedup.
// Compare the workers=1 and workers=N lines:
//
//	go test -bench BenchmarkOutsourceParallel -benchtime 3x
func BenchmarkOutsourceParallel(b *testing.B) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 2000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	signer, err := aqverify.NewSigner(aqverify.Ed25519, aqverify.SignerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	spec, ctx := lineSpec(tbl, dom, signer), context.Background()
	for _, workers := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := aqverify.Outsource(ctx, spec,
					aqverify.WithMode(aqverify.MultiSignature),
					aqverify.WithShuffle(1),
					aqverify.WithBuildWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedBuild measures the domain-sharded builder: the same
// database built as one tree (K=1) versus split into K sub-box trees
// constructed concurrently. Each shard owns ~S/K subdomains, so the
// serial work shrinks with K even before the shard builds overlap;
// multicore speedup curves belong in EXPERIMENTS.md (this container
// has 2 CPUs).
//
//	go test -bench BenchmarkShardedBuild -benchtime 3x
func BenchmarkShardedBuild(b *testing.B) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	signer, err := aqverify.NewSigner(aqverify.Ed25519, aqverify.SignerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	spec, ctx := lineSpec(tbl, dom, signer), context.Background()
	for _, k := range []int{1, 2, 4, 8} {
		plan, err := aqverify.NewShardPlan(dom, 0, k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := aqverify.Outsource(ctx, spec, aqverify.WithMode(aqverify.MultiSignature),
					aqverify.WithShuffle(0), aqverify.WithPlan(plan)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHandleBatch measures the batched query plane — Server.
// QueryBatch, 256 mixed queries per batch, one-signature, unverified —
// sequential versus fanned out across the CPUs, against one IFMH-tree
// (workers=…) and against the same table split into 4 shards
// (sharded/K=4/workers=…), which is where backend.Sharded's
// shard-contiguous dispatch gets a number. Its ranges return a large
// share of the table, so B/op is mostly answer bytes;
// BenchmarkServerPath is the per-answer account of the walk. (The name
// predates the plane.)
func BenchmarkHandleBatch(b *testing.B) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 2000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	signer, err := aqverify.NewSigner(aqverify.Ed25519, aqverify.SignerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	qs := make([]aqverify.Query, 256)
	for i := range qs {
		x := aqverify.Point{rng.Float64()*(dom.Hi[0]-dom.Lo[0]) + dom.Lo[0]}
		switch i % 3 {
		case 0:
			qs[i] = aqverify.NewTopK(x, 1+rng.Intn(16))
		case 1:
			qs[i] = aqverify.NewRange(x, -2, 2)
		default:
			qs[i] = aqverify.NewKNN(x, 1+rng.Intn(16), rng.NormFloat64())
		}
	}
	ctx := context.Background()
	for _, arm := range []struct {
		prefix string
		opts   []aqverify.BuildOption
	}{{"", nil}, {"sharded/K=4/", []aqverify.BuildOption{aqverify.WithShards(4, 0)}}} {
		res, err := aqverify.Outsource(ctx, lineSpec(tbl, dom, signer),
			append(arm.opts, aqverify.WithMode(aqverify.OneSignature), aqverify.WithShuffle(0))...)
		if err != nil {
			b.Fatal(err)
		}
		var hosted aqverify.Backend
		if res.Set != nil {
			hosted, err = aqverify.NewShardedBackend(res.Set)
		} else {
			hosted, err = aqverify.NewLocalBackend(res.Tree)
		}
		if err != nil {
			b.Fatal(err)
		}
		srv, err := server.New(hosted)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range workerCounts() {
			b.Run(fmt.Sprintf("%sworkers=%d", arm.prefix, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, errs := srv.QueryBatch(ctx, qs, backend.WithWorkers(workers))
					for j, err := range errs {
						if err != nil {
							b.Fatalf("query %d: %v", j, err)
						}
					}
				}
			})
		}
	}
}

// mixedQueries is the end-to-end benchmark's mixed sequence over a Lines
// table: query i has kind i mod 3 (top-k, range, kNN) and result size
// {4, 16, 64}[(i/3) mod 3].
func mixedQueries(b *testing.B, tbl aqverify.Table, dom aqverify.Box, count int) []aqverify.Query {
	b.Helper()
	var err error
	var cells [3][3][]aqverify.Query
	for s, size := range [3]int{4, 16, 64} {
		cfg := func(kind int) workload.QueryConfig {
			return workload.QueryConfig{Count: (count + 8) / 9, Seed: int64(3*kind + s), ResultSize: size}
		}
		cells[0][s] = workload.TopK(dom, cfg(0))
		if cells[1][s], err = workload.Ranges(tbl, aqverify.AffineLine(0, 1), dom, cfg(1)); err != nil {
			b.Fatal(err)
		}
		if cells[2][s], err = workload.KNN(tbl, aqverify.AffineLine(0, 1), dom, cfg(2)); err != nil {
			b.Fatal(err)
		}
	}
	qs := make([]aqverify.Query, count)
	for i := range qs {
		qs[i] = cells[i%3][(i/3)%3][i/9]
	}
	return qs
}

// BenchmarkClientPath is the client's half of a verified answer —
// wire.DecodeIFMH + verify.Verify — over 2 048 mixed answers shaped like
// the end-to-end benchmark's mixed sequence (mixedQueries; Lines n=2000,
// multi-signature). One op is one answer (ns/op ÷ 1000 = µs/answer).
// cold verifies under the owner's raw key; warm under a verify.Memo that
// has seen every answer once, which is what a dialed session reaches;
// decode is wire.DecodeIFMH alone.
func BenchmarkClientPath(b *testing.B) {
	const n, count = 2000, 2048
	tree, dom := buildFixture(b, n, aqverify.MultiSignature)
	frames := make([][]byte, count)
	for i, q := range mixedQueries(b, tree.Table(), dom, count) {
		ans, err := tree.Process(q, nil)
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = wire.EncodeIFMH(ans)
	}
	check := func(pub aqverify.PublicParams, frame []byte, ctr *metrics.Counter) {
		ans, err := wire.DecodeIFMH(frame)
		if err == nil {
			err = aqverify.Verify(pub, ans.Query, ans.Records, &ans.VO, ctr)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	cold, warm := tree.Public(), tree.Public()
	warm.Verifier = verify.Memo(cold.Verifier)
	for _, frame := range frames {
		check(warm, frame, nil)
	}
	for _, arm := range []struct {
		name string
		pub  aqverify.PublicParams
	}{{"cold", cold}, {"warm", warm}} {
		b.Run(arm.name, func(b *testing.B) {
			var ctr metrics.Counter
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				check(arm.pub, frames[i%count], &ctr)
			}
		})
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.DecodeIFMH(frames[i%count]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// serverPathSink keeps the encoded frame alive so the compiler cannot
// drop the work BenchmarkServerPath measures.
var serverPathSink []byte

// BenchmarkServerPath is the server's half of an answer beside
// BenchmarkClientPath — route to the shard, Tree.ProcessInto one reused
// answer, wire.EncodeIFMH, as a shard's serving primitive does — over the
// same mixed sequence on the same table, multi-signature, split into 2
// shards as the end-to-end benchmark deploys it. One op is one answer;
// -benchmem reads the per-answer garbage directly: the frame.
func BenchmarkServerPath(b *testing.B) {
	const n, count = 2000, 2048
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: n, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	signer, err := aqverify.NewSigner(aqverify.Ed25519, aqverify.SignerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := aqverify.NewShardPlan(dom, 0, 2)
	if err != nil {
		b.Fatal(err)
	}
	res, err := aqverify.Outsource(context.Background(), lineSpec(tbl, dom, signer),
		aqverify.WithMode(aqverify.MultiSignature), aqverify.WithShuffle(0), aqverify.WithPlan(plan))
	if err != nil {
		b.Fatal(err)
	}
	qs := mixedQueries(b, tbl, dom, count)
	var ans verify.Answer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%count]
		id, err := res.Set.Plan.RouteQuery(q)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Set.Trees[id].ProcessInto(&ans, q, nil); err != nil {
			b.Fatal(err)
		}
		serverPathSink = wire.EncodeIFMH(&ans)
	}
}

// BenchmarkRepublishCycle splits the owner's republish cycle into its
// three calls — build.Apply of one update, one insert and one delete,
// artifact.Save of the new epoch, artifact.Open of the saved directory —
// over the republish workload's table shape: 2000 lines, one-signature,
// the canonical-order build. Each op of apply advances a chain of
// epochs; save and open repeat on one epoch.
//
//	go test -run '^$' -bench RepublishCycle -benchtime 3x .
func BenchmarkRepublishCycle(b *testing.B) {
	const n = 2000
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: n, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	signer, err := aqverify.NewSigner(aqverify.Ed25519, aqverify.SignerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	cur, err := aqverify.Outsource(ctx, lineSpec(tbl, dom, signer),
		aqverify.WithMode(aqverify.OneSignature), aqverify.WithShuffle(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	line := func(id int) aqverify.Record {
		return aqverify.Record{ID: uint64(id), Attrs: []float64{rng.NormFloat64(), rng.NormFloat64() * 3}}
	}
	next := 10 * n
	b.Run("apply", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			upd := rng.Intn(n)
			del := (upd + 1 + rng.Intn(n-1)) % n
			next += 2
			if cur, err = aqverify.Apply(ctx, cur, aqverify.Update(upd, line(next)),
				aqverify.Insert(line(next+1)), aqverify.Delete(del)); err != nil {
				b.Fatal(err)
			}
		}
	})
	dir := b.TempDir()
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := artifact.Save(dir, cur); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a, err := artifact.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			a.Close()
		}
	})
}
