package server_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"aqverify/internal/build"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/server"
	"aqverify/internal/shard"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
)

func shardedFixture(t *testing.T, k int) (*server.Server, *shard.Set, geometry.Box) {
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
	res, err := build.Outsource(context.Background(),
		build.Spec{Table: tbl, Template: funcs.AffineLine(0, 1), Domain: dom, Signer: signer},
		build.WithMode(verify.MultiSignature), build.WithShuffle(1), build.WithPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	return newServer(t, sharded(t, res.Set)), res.Set, dom
}

func TestShardedServerBasics(t *testing.T) {
	srv, set, dom := shardedFixture(t, 4)
	if got := srv.Name(); got != "ifmh-multi" {
		t.Errorf("sharded backend advertises %q, want the underlying mode name", got)
	}
	if got := len(srv.Epochs()); got != 4 {
		t.Errorf("%d per-shard epochs, want 4", got)
	}
	h := host(t, srv, set.Public())
	q := query.NewTopK(geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}, 3)
	ctx := context.Background()
	out, err := h.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := wire.DecodeIFMH(out.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Verify(set.Public(), q, ans.Records, &ans.VO, &metrics.Counter{}); err != nil {
		t.Fatalf("sharded answer rejected: %v", err)
	}
	// Out-of-domain input: refused before routing, tallied as an error.
	if _, err := h.Query(ctx, query.NewTopK(geometry.Point{dom.Hi[0] + 1}, 1)); err == nil {
		t.Fatal("out-of-domain query answered")
	}
	st := h.stats(t)
	if st.Errors != 1 {
		t.Errorf("errors = %d, want 1", st.Errors)
	}
	if len(st.PerShard) != 4 {
		t.Fatalf("perShard has %d entries, want 4", len(st.PerShard))
	}
	total := 0
	for _, s := range st.PerShard {
		total += s.Queries + s.Errors
	}
	if total != 1 {
		t.Errorf("per-shard tallies sum to %d, want 1 (the answered query)", total)
	}
}

// TestShardedBatchGrouping checks the batch path: shard attribution
// matches the plan's routing, grouped dispatch returns every item in
// its original slot, per-shard tallies account for every query, and the
// answers match what the single-query path produces.
func TestShardedBatchGrouping(t *testing.T) {
	srv, set, dom := shardedFixture(t, 4)
	rng := rand.New(rand.NewSource(2))
	qs := make([]query.Query, 0, 40)
	for i := 0; i < 32; i++ {
		x := dom.Lo[0] + rng.Float64()*(dom.Hi[0]-dom.Lo[0])
		qs = append(qs, query.NewTopK(geometry.Point{x}, 1+rng.Intn(5)))
	}
	for _, c := range set.Plan.Cuts {
		qs = append(qs, query.NewTopK(geometry.Point{c}, 2)) // on-cut
	}
	qs = append(qs, query.NewTopK(geometry.Point{dom.Hi[0] + 5}, 1)) // unroutable

	h := host(t, srv, set.Public())
	ctx := context.Background()
	answers, errs := h.QueryBatch(ctx, qs)
	seenShards := make(map[int]bool)
	for i, q := range qs {
		want, werr := set.Plan.Route(q.X)
		if werr != nil {
			if errs[i] == nil || answers[i].Shard != wire.ShardNone {
				t.Fatalf("item %d: unroutable query got shard %d err %v", i, answers[i].Shard, errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("item %d failed: %v", i, errs[i])
		}
		if answers[i].Shard != want {
			t.Fatalf("item %d attributed to shard %d, routing says %d", i, answers[i].Shard, want)
		}
		seenShards[want] = true
		single, err := h.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(single.Raw, answers[i].Raw) {
			t.Fatalf("item %d: batched answer differs from the single-query path", i)
		}
	}
	if len(seenShards) < 2 {
		t.Fatalf("batch exercised %d shards; want a real fan-out", len(seenShards))
	}

	routable := len(qs) - 1
	st := h.stats(t)
	got := 0
	for _, s := range st.PerShard {
		got += s.Queries
	}
	// Each routable query was answered twice: once batched, once via the
	// cross-check Query above.
	if got != 2*routable {
		t.Errorf("per-shard query tallies sum to %d, want %d", got, 2*routable)
	}
	if st.Errors != 1 {
		t.Errorf("errors = %d, want 1", st.Errors)
	}
}

// TestUnshardedBatchShards: single-tree backends report every shard as
// -1 through the attributed batch path.
func TestUnshardedBatchShards(t *testing.T) {
	tree, dom := fixtures(t)
	srv := newServer(t, local(t, tree))
	if srv.Epochs() != nil {
		t.Errorf("per-shard epochs = %v, want none", srv.Epochs())
	}
	if host(t, srv, tree.Public()).stats(t).PerShard != nil {
		t.Error("single-tree server reports shard stats")
	}
	qs := []query.Query{query.NewTopK(geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}, 2)}
	answers, errs := srv.QueryBatch(context.Background(), qs)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if answers[0].Shard != wire.ShardNone {
		t.Errorf("shard = %d, want none", answers[0].Shard)
	}
}
