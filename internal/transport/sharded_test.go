package transport

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/shard"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
)

func shardedHandler(t *testing.T, k int) (*Handler, *shard.Set, geometry.Box) {
	t.Helper()
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 100, Seed: 1})
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
		Mode: verify.OneSignature, Signer: signer, Domain: dom,
		Template: funcs.AffineLine(0, 1), Seed: 1,
	}, plan)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := backend.NewSharded(set)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewIFMHHandler(newServer(t, sb), set.Public())
	if err != nil {
		t.Fatal(err)
	}
	return h, set, dom
}

// TestHTTPShardedBatch drives the shard fan-out end to end over HTTP:
// the client dials with nothing but the URL, every answer verifies, and
// each batch result is attributed to the shard the plan routes it to.
func TestHTTPShardedBatch(t *testing.T) {
	h, set, dom := shardedHandler(t, 4)
	ts := httptest.NewServer(h)
	defer ts.Close()

	r, withVerify := dialVerifying(t, ts.URL, ts.Client())
	if r.Client().Shards() != 4 {
		t.Errorf("advertised shards = %d, want 4", r.Client().Shards())
	}

	rng := rand.New(rand.NewSource(4))
	qs := make([]query.Query, 0, 20)
	for i := 0; i < 16; i++ {
		x := dom.Lo[0] + rng.Float64()*(dom.Hi[0]-dom.Lo[0])
		qs = append(qs, query.NewTopK(geometry.Point{x}, 2))
	}
	for _, c := range set.Plan.Cuts {
		qs = append(qs, query.NewTopK(geometry.Point{c}, 2))
	}
	answers, errs := r.QueryBatch(context.Background(), qs, withVerify)
	for i, ans := range answers {
		if errs[i] != nil {
			t.Fatalf("query %d rejected: %v", i, errs[i])
		}
		want, err := set.Plan.Route(qs[i].X)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Shard != want {
			t.Errorf("query %d attributed to shard %d, routing says %d", i, ans.Shard, want)
		}
	}

	// /stats exposes the per-shard tallies and they cover the batch.
	stats := getStats(t, ts.URL)
	if stats.Shards != 4 || len(stats.PerShard) != 4 {
		t.Fatalf("stats advertise %d shards with %d entries, want 4/4", stats.Shards, len(stats.PerShard))
	}
	total := 0
	for _, s := range stats.PerShard {
		total += s.Queries
	}
	if total != len(qs) {
		t.Errorf("per-shard tallies sum to %d, want %d", total, len(qs))
	}
}

// TestHTTPUnshardedShardIsNone: against a single-tree server, batch
// results carry no shard attribution.
func TestHTTPUnshardedShardIsNone(t *testing.T) {
	srv, pub, dom := fixtures(t)
	h, err := NewIFMHHandler(srv, pub)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	r, withVerify := dialVerifying(t, ts.URL, ts.Client())
	if r.Client().Shards() != 0 {
		t.Errorf("advertised shards = %d, want 0", r.Client().Shards())
	}
	x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	answers, errs := r.QueryBatch(context.Background(), []query.Query{query.NewTopK(x, 2)}, withVerify)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if answers[0].Shard != wire.ShardNone {
		t.Errorf("shard = %d, want none", answers[0].Shard)
	}
}
