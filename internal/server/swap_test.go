package server_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/server"
	"aqverify/internal/shard"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
)

// swapFixture builds one signed table at two consecutive publication
// epochs — the minimal honest input to Swap.
func swapFixture(t *testing.T) (e1, e2 *core.Tree, dom geometry.Box) {
	t.Helper()
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{
		Mode: verify.OneSignature, Signer: signer, Domain: dom,
		Template: funcs.AffineLine(0, 1), Seed: 5,
	}
	if e1, err = core.Build(tbl, p); err != nil {
		t.Fatal(err)
	}
	p.Epoch = 2
	if e2, err = core.Build(tbl, p); err != nil {
		t.Fatal(err)
	}
	return e1, e2, dom
}

// shardedAtEpoch builds the shardedFixture table as a k-shard set
// stamped at the given epoch.
func shardedAtEpoch(t *testing.T, k int, epoch uint64) *shard.Set {
	t.Helper()
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := shard.NewPlan(dom, 0, k)
	if err != nil {
		t.Fatal(err)
	}
	set, err := shard.Build(tbl, core.Params{
		Mode: verify.MultiSignature, Signer: signer, Domain: dom,
		Template: funcs.AffineLine(0, 1), Seed: 1, Epoch: epoch,
	}, plan)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestSwapPublishesNewEpoch pins the single-tree accept/reject matrix:
// a later epoch of the same database swaps in and shows on Epoch and
// Swaps; nil backends, different backend names, and epochs that do not
// strictly advance are refused without disturbing the serving snapshot.
func TestSwapPublishesNewEpoch(t *testing.T) {
	e1, e2, _ := swapFixture(t)
	srv := newServer(t, local(t, e1))
	if srv.Epoch() != 1 || srv.Swaps() != 0 {
		t.Fatalf("fresh server: epoch %d swaps %d, want 1, 0", srv.Epoch(), srv.Swaps())
	}

	if err := srv.Swap(nil); err == nil {
		t.Error("nil backend swapped in")
	}
	// The other signing mode at a later epoch: refused for its name, the
	// epoch never gets a say.
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := core.Build(e1.Table(), core.Params{
		Mode: verify.MultiSignature, Signer: signer, Domain: e1.Domain(),
		Template: funcs.AffineLine(0, 1), Seed: 5, Epoch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Swap(local(t, multi)); err == nil || !strings.Contains(err.Error(), "same logical database") {
		t.Errorf("ifmh-multi over ifmh-one: err = %v", err)
	}
	if err := srv.Swap(local(t, e1)); err == nil || !strings.Contains(err.Error(), "does not advance") {
		t.Errorf("same epoch: err = %v", err)
	}

	if err := srv.Swap(local(t, e2)); err != nil {
		t.Fatalf("honest swap refused: %v", err)
	}
	if srv.Epoch() != 2 || srv.Swaps() != 1 {
		t.Errorf("after swap: epoch %d swaps %d, want 2, 1", srv.Epoch(), srv.Swaps())
	}
	if got := srv.Inner().(*backend.Local).Tree(); got != e2 {
		t.Error("Inner() does not return the swapped-in tree")
	}
	// Rolling back is refused too: the serving epoch only advances.
	if err := srv.Swap(local(t, e1)); err == nil {
		t.Error("rollback to epoch 1 accepted")
	}
}

// TestSwapShardedRules pins the sharded half of the matrix: a complete
// later-epoch set swaps in (per-shard epochs land on the fronting
// handler's /stats gauges, and the swap it saw is counted), while torn sets, shard-count changes, and sharded-to-
// unsharded swaps are refused.
func TestSwapShardedRules(t *testing.T) {
	s1 := shardedAtEpoch(t, 3, 1)
	s2 := shardedAtEpoch(t, 3, 2)
	srv := newServer(t, sharded(t, s1))
	h := host(t, srv, s1.Public())

	torn := &shard.Set{Plan: s1.Plan, Trees: []*core.Tree{s2.Trees[0], s1.Trees[1], s1.Trees[2]}}
	if err := srv.Swap(sharded(t, torn)); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Errorf("torn set: err = %v", err)
	}

	if err := srv.Swap(sharded(t, shardedAtEpoch(t, 2, 2))); err == nil || !strings.Contains(err.Error(), "shard count") {
		t.Errorf("shard count change: err = %v", err)
	}

	if err := srv.Swap(local(t, s2.Trees[0])); err == nil || !strings.Contains(err.Error(), "sharded and unsharded") {
		t.Errorf("unsharded over sharded: err = %v", err)
	}

	if st := h.stats(t); st.Epoch != 1 || st.Swaps != 0 {
		t.Errorf("after four refusals: /stats epoch %d swaps %d, want 1, 0", st.Epoch, st.Swaps)
	}
	if err := srv.Swap(sharded(t, s2)); err != nil {
		t.Fatalf("honest sharded swap refused: %v", err)
	}
	if srv.Epoch() != 2 {
		t.Errorf("serving epoch = %d, want 2", srv.Epoch())
	}
	st := h.stats(t)
	if st.Epoch != 2 || st.Swaps != 1 {
		t.Errorf("/stats epoch %d swaps %d, want 2, 1", st.Epoch, st.Swaps)
	}
	for i, st := range st.PerShard {
		if st.Epoch != 2 || st.Lag != 0 {
			t.Errorf("shard %d: epoch %d lag %d, want 2, 0", i, st.Epoch, st.Lag)
		}
	}
}

// TestTornSetLagGauges: Swap refuses torn sets, but a server may be
// constructed over one (e.g. observing a mid-rollout deployment); the
// fronting handler's per-shard stats then expose each shard's lag behind
// the serving epoch.
func TestTornSetLagGauges(t *testing.T) {
	s1 := shardedAtEpoch(t, 3, 1)
	s2 := shardedAtEpoch(t, 3, 2)
	torn := &shard.Set{Plan: s1.Plan, Trees: []*core.Tree{s2.Trees[0], s1.Trees[1], s1.Trees[2]}}
	srv := newServer(t, sharded(t, torn))
	if srv.Epoch() != 2 {
		t.Fatalf("serving epoch = %d, want the newest shard's 2", srv.Epoch())
	}
	wantEpoch := []uint64{2, 1, 1}
	wantLag := []uint64{0, 1, 1}
	for i, st := range host(t, srv, s1.Public()).stats(t).PerShard {
		if st.Epoch != wantEpoch[i] || st.Lag != wantLag[i] {
			t.Errorf("shard %d: epoch %d lag %d, want %d, %d", i, st.Epoch, st.Lag, wantEpoch[i], wantLag[i])
		}
	}
}

// TestQueryDuringSwapRace hammers the query plane while the owner
// applies mutations and swaps the new epochs in, on both the
// single-tree and the sharded server. Every answer must verify against
// the published parameters of the single epoch it is stamped with —
// never a torn mix — and every stamped epoch must have been published
// before it was observed. Run under -race this also pins the
// lock-freedom of the swap path.
func TestQueryDuringSwapRace(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []build.Option
		host func(*build.Result) (server.Backend, error)
	}{
		{
			name: "local",
			opts: nil,
			host: func(r *build.Result) (server.Backend, error) { return backend.NewLocal(r.Tree) },
		},
		{
			name: "sharded",
			opts: []build.Option{build.WithShards(3, 0)},
			host: func(r *build.Result) (server.Backend, error) { return backend.NewSharded(r.Set) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			tbl, dom, err := workload.Lines(workload.LinesConfig{N: 60, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
			if err != nil {
				t.Fatal(err)
			}
			spec := build.Spec{Table: tbl, Template: funcs.AffineLine(0, 1), Domain: dom, Signer: signer}
			res, err := build.Outsource(ctx, spec, append([]build.Option{build.WithShuffle(9)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			hosted, err := tc.host(res)
			if err != nil {
				t.Fatal(err)
			}
			srv := newServer(t, hosted)

			var pubs sync.Map // epoch -> verify.PublicParams, stored before the swap
			pubs.Store(uint64(1), res.Public)

			qs := make([]query.Query, 0, 8)
			for i := 0; i < 8; i++ {
				x := dom.Lo[0] + (dom.Hi[0]-dom.Lo[0])*float64(i+1)/9
				qs = append(qs, query.NewTopK(geometry.Point{x}, 1+i%4))
			}

			const lastEpoch = 6
			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() { // the owner: mutate, publish, swap
				defer wg.Done()
				defer close(stop)
				cur := res
				for e := uint64(2); e <= lastEpoch; e++ {
					i := int(e) % tbl.Len()
					upd := tableOf(cur).Records[i]
					upd.Attrs = append([]float64(nil), upd.Attrs...)
					upd.Attrs[0] += 0.01
					next, err := build.Apply(ctx, cur, build.Update(i, upd))
					if err != nil {
						t.Errorf("apply to epoch %d: %v", e, err)
						return
					}
					pubs.Store(e, next.Public)
					hb, err := tc.host(next)
					if err != nil {
						t.Errorf("host epoch %d: %v", e, err)
						return
					}
					if err := srv.Swap(hb); err != nil {
						t.Errorf("swap to epoch %d: %v", e, err)
						return
					}
					cur = next
				}
			}()
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					done := false
					for !done {
						select {
						case <-stop:
							done = true // one final pass after the last swap
						default:
						}
						if w%2 == 0 {
							answers, errs := srv.QueryBatch(ctx, qs)
							for j := range qs {
								checkEpochAnswer(t, &pubs, qs[j], answers[j], errs[j])
							}
						} else {
							for j, r := range srv.QueryStream(ctx, qs) {
								checkEpochAnswer(t, &pubs, qs[j], r.Answer, r.Err)
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if srv.Epoch() != lastEpoch {
				t.Errorf("final serving epoch = %d, want %d", srv.Epoch(), lastEpoch)
			}
		})
	}
}

// tableOf returns the mutable product's table snapshot.
func tableOf(r *build.Result) record.Table {
	if r.Tree != nil {
		return r.Tree.Table()
	}
	return r.Set.Trees[0].Table()
}

// checkEpochAnswer asserts one answer verifies against the published
// parameters of the exact epoch it is stamped with.
func checkEpochAnswer(t *testing.T, pubs *sync.Map, q query.Query, ans backend.Answer, err error) {
	t.Helper()
	if err != nil {
		t.Errorf("query failed during swap: %v", err)
		return
	}
	pv, ok := pubs.Load(ans.Epoch)
	if !ok {
		t.Errorf("answer stamped with unpublished epoch %d", ans.Epoch)
		return
	}
	pub := pv.(verify.PublicParams)
	dec, derr := wire.DecodeIFMH(ans.Raw)
	if derr != nil {
		t.Errorf("epoch %d answer not decodable: %v", ans.Epoch, derr)
		return
	}
	if verr := verify.Verify(pub, q, dec.Records, &dec.VO, nil); verr != nil {
		t.Errorf("answer does not verify against its own epoch %d: %v", ans.Epoch, verr)
	}
}
