package server

import (
	"context"
	"math/rand"
	"testing"

	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/sig"
	"aqverify/internal/wire"
)

func fixtures(t *testing.T) (*core.Tree, geometry.Box) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	recs := make([]record.Record, 30)
	for i := range recs {
		recs[i] = record.Record{ID: uint64(i + 1), Attrs: []float64{rng.NormFloat64(), rng.NormFloat64()}}
	}
	tbl, err := record.NewTable(record.Schema{
		Name:    "t",
		Columns: []record.Column{{Name: "a"}, {Name: "b"}},
	}, recs)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dom := geometry.MustBox([]float64{-1}, []float64{1})
	tpl := funcs.AffineLine(0, 1)
	tree, err := core.Build(tbl, core.Params{Mode: core.OneSignature, Signer: signer, Domain: dom, Template: tpl})
	if err != nil {
		t.Fatal(err)
	}
	return tree, dom
}

func TestNewRequiresBackend(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil backend accepted")
	}
}

func TestBackendNames(t *testing.T) {
	tree, _ := fixtures(t)
	if got := (IFMH{Tree: tree}).Name(); got != "ifmh-one" {
		t.Errorf("name = %q", got)
	}
}

func TestQueryReturnsDecodableAnswers(t *testing.T) {
	tree, dom := fixtures(t)
	x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	q := query.NewTopK(x, 3)

	srv, err := New(IFMH{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ans, err := srv.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeIFMH(ans.Raw); err != nil {
		t.Fatalf("IFMH answer not decodable: %v", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	tree, dom := fixtures(t)
	srv, err := New(IFMH{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	for i := 0; i < 5; i++ {
		if _, err := srv.Query(context.Background(), query.NewTopK(x, 2)); err != nil {
			t.Fatal(err)
		}
	}
	stats, n := srv.Stats()
	if n != 5 {
		t.Errorf("query count = %d", n)
	}
	if stats.NodesVisited == 0 || stats.Bytes == 0 {
		t.Errorf("stats not accumulated: %+v", stats)
	}
	// Failed queries do not count.
	if _, err := srv.Query(context.Background(), query.NewTopK(geometry.Point{99}, 1)); err == nil {
		t.Fatal("out-of-domain query accepted")
	}
	_, n = srv.Stats()
	if n != 5 {
		t.Errorf("failed query was counted: %d", n)
	}
}
