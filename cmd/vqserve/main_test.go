package main

import (
	"context"
	"flag"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"aqverify/internal/artifact"
	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/sig"
	"aqverify/internal/transport"
	"aqverify/internal/verify"
	"aqverify/internal/workload"
)

// TestFlagSurface pins the command's whole flag set: a serving process
// is told where to listen and what to load, nothing about how the data
// was generated, planned or signed.
func TestFlagSurface(t *testing.T) {
	var got []string
	flagSet(&config{}).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	sort.Strings(got)
	if want := "addr cache load shard"; strings.Join(got, " ") != want {
		t.Fatalf("vqserve flags %v, want exactly %q", got, want)
	}
}

// TestLoadRequired: without -load there is nothing to serve, and the
// usage error points at the owner's tool.
func TestLoadRequired(t *testing.T) {
	err := run([]string{"-addr", "127.0.0.1:0"})
	if err == nil || !strings.Contains(err.Error(), "-load") || !strings.Contains(err.Error(), "vqgen -outsource") {
		t.Fatalf("run without -load: %v, want a usage error naming -load and vqgen -outsource", err)
	}
}

// TestLoadServesVerifiedAnswers saves an owner's 2-shard build (what
// vqgen -outsource -shards 2 writes) and drives the handler main serves
// — whole set, one shard, cache on — with a verifying client that knows
// nothing but the URL.
func TestLoadServesVerifiedAnswers(t *testing.T) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{Rand: sig.DeterministicRand(7)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := build.Outsource(context.Background(),
		build.Spec{Table: tbl, Template: funcs.AffineLine(0, 1), Domain: dom, Signer: signer},
		build.WithMode(verify.MultiSignature), build.WithShards(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	info, err := artifact.Save(dir, res)
	if err != nil {
		t.Fatal(err)
	}

	for _, cfg := range []config{
		{loadDir: dir, shard: -1},
		{loadDir: dir, shard: -1, cache: true},
		{loadDir: dir, shard: 1},
	} {
		a, _, h, err := load(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		ts := httptest.NewServer(h)
		r, err := transport.DialRemote(ts.URL, nil)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		cli := r.Client()
		if cli.Artifact() != info.HashHex() || cli.Provenance() != "loaded" {
			t.Errorf("%+v: bundle advertises artifact %q provenance %q", cfg, cli.Artifact(), cli.Provenance())
		}
		pub, ok := cli.Public()
		if !ok {
			t.Fatalf("%+v: no IFMH bundle at /params", cfg)
		}
		// The serving domain is the whole one or, with -shard, the
		// shard's sub-box; query its midpoint.
		sd, _ := cli.Domain()
		x := geometry.Point{(sd.Lo[0] + sd.Hi[0]) / 2}
		ans, err := r.Query(context.Background(), query.NewTopK(x, 5), backend.WithVerify(pub))
		if err != nil || len(ans.Records) != 5 {
			t.Errorf("%+v: verified top-5 at %v: %d records, err %v", cfg, x, len(ans.Records), err)
		}
		ts.Close()
		a.Close()
	}

	if _, _, _, err := load(config{loadDir: dir, shard: 2}); err == nil {
		t.Error("-shard 2 of a 2-shard set accepted")
	}
}
