package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/itree"
	"aqverify/internal/metrics"
	"aqverify/internal/record"
	"aqverify/internal/verify"
	"aqverify/internal/workload"
)

// buildWorkers builds a 1-D tree with an explicit worker count and its
// own counter, so tests can compare both outputs and instrumentation.
func buildWorkers(t testing.TB, tbl record.Table, mode verify.Mode, workers int, ctr *metrics.Counter) *Tree {
	t.Helper()
	tree, err := BuildCtx(context.Background(), tbl, Params{
		Mode:     mode,
		Signer:   testSigner,
		Domain:   geometry.MustBox([]float64{-1}, []float64{1}),
		Template: funcs.AffineLine(0, 1),
		Hasher:   hashing.New(ctr),
		Seed:     42,
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree.Tree
}

// sigsOf collects every signature a tree holds (one root signature or S
// subdomain signatures).
func sigsOf(tr *Tree) [][]byte {
	if tr.mode == verify.OneSignature {
		return [][]byte{tr.rootSig}
	}
	out := make([][]byte, len(tr.subs))
	for i, si := range tr.subs {
		out[i] = si.Sig
	}
	return out
}

// TestParallelBuildIdentical is the byte-identity contract of the
// parallel construction of a univariate tree: for every mode, Workers=1
// (the serial path) and Workers=8 must produce the same root digest,
// the same signatures (Ed25519 is deterministic) and the same hash/sign
// operation counts. ("materialize=false" is inert: the subtests keep the
// names they have always had.)
func TestParallelBuildIdentical(t *testing.T) {
	tbl := lineTable(t, 80, 7)
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		t.Run(fmt.Sprintf("%v/materialize=false", mode), func(t *testing.T) {
			var serialCtr, parCtr metrics.Counter
			serial := buildWorkers(t, tbl, mode, 1, &serialCtr)
			parallel := buildWorkers(t, tbl, mode, 8, &parCtr)

			if serial.rootDigest != parallel.rootDigest {
				t.Fatal("root digests differ between Workers=1 and Workers=8")
			}
			ss, ps := sigsOf(serial), sigsOf(parallel)
			if len(ss) != len(ps) {
				t.Fatalf("signature counts differ: %d vs %d", len(ss), len(ps))
			}
			for i := range ss {
				if !bytes.Equal(ss[i], ps[i]) {
					t.Fatalf("signature %d differs between serial and parallel build", i)
				}
			}
			if serialCtr != parCtr {
				t.Errorf("instrumentation differs:\nserial:   %v\nparallel: %v", &serialCtr, &parCtr)
			}
			if serialCtr.Hashes == 0 || int(serialCtr.SigSigns) != serial.SignatureCount() {
				t.Errorf("construction not instrumented: %v for %d signatures", &serialCtr, serial.SignatureCount())
			}
		})
	}
}

// TestForestRowsIdenticalAcrossWorkers holds the univariate FMH chain's
// hash pass to its contract on the republish benchmark's table (2 000
// lines, seed 1, the canonical order under seed 1): at 1, 2, 3 and 8
// workers, in both signature modes, the forest's row table is the same
// bytes and the hash count is the same. The pass cuts the rows after gap
// 0's list into equal ranges; the test checks that some cut falls
// strictly inside one gap's derived rows, so a worker does recompute a
// child on an earlier worker's side of the cut.
func TestForestRowsIdenticalAcrossWorkers(t *testing.T) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		t.Run(mode.String(), func(t *testing.T) {
			var ref []byte
			var refCtr metrics.Counter
			midGap := false
			for _, workers := range []int{1, 2, 3, 8} {
				var ctr metrics.Counter
				o, err := BuildCtx(context.Background(), tbl, Params{
					Mode: mode, Signer: testSigner, Domain: dom, Template: funcs.AffineLine(0, 1),
					Hasher: hashing.New(&ctr), Seed: 1, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				rows := o.forest.Rows()
				if workers == 1 {
					ref, refCtr = rows, ctr
					continue
				}
				if !bytes.Equal(rows, ref) {
					t.Fatalf("workers=%d: the forest's rows differ from the serial build's", workers)
				}
				if ctr != refCtr {
					t.Errorf("workers=%d: counters differ:\nserial: %v\nnow:    %v", workers, &refCtr, &ctr)
				}
				// Gap g's rows are (root of g−1, root of g]; the hash pass
				// cuts [from, n) at from + (n−from)·k/workers.
				from, n := o.subs[0].List.Row+1, uint32(o.forest.Len())
				for k := 1; k < workers; k++ {
					cut := from + uint32(uint64(n-from)*uint64(k)/uint64(workers))
					for g := 1; g < len(o.subs); g++ {
						if o.subs[g-1].List.Row+1 < cut && cut <= o.subs[g].List.Row {
							midGap = true
						}
					}
				}
			}
			if !midGap {
				t.Error("no range cut fell inside a gap's derived rows")
			}
		})
	}
}

// TestParallelBuildIdenticalND covers the multivariate path, where the
// per-subdomain sort + FMH build itself is sharded.
func TestParallelBuildIdenticalND(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	recs := make([]record.Record, 10)
	for i := range recs {
		recs[i] = record.Record{
			ID:    uint64(i + 1),
			Attrs: []float64{rng.Float64()*4 + 0.5, rng.Float64()*4 + 0.5},
		}
	}
	tbl, err := record.NewTable(record.Schema{
		Name:    "points",
		Columns: []record.Column{{Name: "a"}, {Name: "b"}},
	}, recs)
	if err != nil {
		t.Fatal(err)
	}
	build := func(workers int) *Tree {
		tree, err := BuildCtx(context.Background(), tbl, Params{
			Mode:     verify.MultiSignature,
			Signer:   testSigner,
			Domain:   geometry.MustBox([]float64{0.1, 0.1}, []float64{1, 1}),
			Template: funcs.ScalarProduct(2),
			Seed:     5,
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tree.Tree
	}
	serial, parallel := build(1), build(8)
	if serial.rootDigest != parallel.rootDigest {
		t.Fatal("ND root digests differ between Workers=1 and Workers=8")
	}
	ss, ps := sigsOf(serial), sigsOf(parallel)
	for i := range ss {
		if !bytes.Equal(ss[i], ps[i]) {
			t.Fatalf("ND signature %d differs between serial and parallel build", i)
		}
	}
	// Every multivariate list is built from scratch and shares nothing:
	// the forest has exactly S*(2(n+2)-1) nodes, the closed form ablation
	// A1 prices the paper-literal univariate layout with.
	if st := serial.Stats(); st.FMHNodes != st.Subdomains*(2*(len(recs)+2)-1) {
		t.Errorf("ND forest has %d nodes for %d subdomains of %d records, want S*(2(n+2)-1)", st.FMHNodes, st.Subdomains, len(recs))
	}
}

// TestParallelBuildServes sanity-checks that a parallel-built tree
// serves verifiable answers end to end.
func TestParallelBuildServes(t *testing.T) {
	tbl := lineTable(t, 60, 11)
	tree := buildWorkers(t, tbl, verify.MultiSignature, 8, nil)
	pub := tree.Public()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		for _, q := range queriesFor(rng, 4) {
			ans, err := tree.Process(q, nil)
			if err != nil {
				t.Fatalf("%v: %v", q.Kind, err)
			}
			if err := verify.Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
				t.Fatalf("%v: %v", q.Kind, err)
			}
		}
	}
}

// TestPropagateHashesWorkersIdentity walks the serial and parallel
// builds' IMH-trees in lockstep and compares every node hash — the
// node-level contract behind the root-digest identity: level-parallel
// propagation must reproduce the recursive walk exactly, not just at the
// root.
func TestPropagateHashesWorkersIdentity(t *testing.T) {
	tbl := lineTable(t, 80, 19)
	serial := buildWorkers(t, tbl, verify.OneSignature, 1, nil)
	parallel := buildWorkers(t, tbl, verify.OneSignature, 8, nil)
	nodes := 0
	var walk func(a, b *itree.Node)
	walk = func(a, b *itree.Node) {
		if (a == nil) != (b == nil) {
			t.Fatal("tree shapes differ between Workers=1 and Workers=8")
		}
		if a == nil {
			return
		}
		if a.Hash != b.Hash {
			t.Fatalf("node hash differs between Workers=1 and Workers=8 (leaf=%v)", a.IsLeaf())
		}
		nodes++
		if a.IsLeaf() {
			return
		}
		walk(a.Above, b.Above)
		walk(a.Below, b.Below)
	}
	walk(serial.itree.Root, parallel.itree.Root)
	if nodes != serial.itree.NodeCount {
		t.Fatalf("walked %d nodes, want %d", nodes, serial.itree.NodeCount)
	}
}

// TestBuildCtxCanceled: a context canceled mid-construction aborts
// promptly and surfaces context.Canceled (the build-plane mirror of
// backend.Call.FinishBatch's contract).
func TestBuildCtxCanceled(t *testing.T) {
	tbl := lineTable(t, 120, 23)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BuildCtx(ctx, tbl, Params{
		Mode:     verify.MultiSignature,
		Signer:   testSigner,
		Domain:   geometry.MustBox([]float64{-1}, []float64{1}),
		Template: funcs.AffineLine(0, 1),
		Seed:     42,
		Workers:  4,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBuildProgressStages checks the stage callback: every 1-D stage
// fires, in construction order, from the building goroutine.
func TestBuildProgressStages(t *testing.T) {
	tbl := lineTable(t, 40, 29)
	var stages []Stage
	_, err := BuildCtx(context.Background(), tbl, Params{
		Mode:     verify.MultiSignature,
		Signer:   testSigner,
		Domain:   geometry.MustBox([]float64{-1}, []float64{1}),
		Template: funcs.AffineLine(0, 1),
		Workers:  2,
		Progress: func(stage Stage, units int) { stages = append(stages, stage) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Stage{StageDigest, StagePairs, StageITree, StageLists, StagePropagate, StageSign}
	if len(stages) != len(want) {
		t.Fatalf("saw stages %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("stage %d = %s, want %s", i, stages[i], want[i])
		}
	}
}
