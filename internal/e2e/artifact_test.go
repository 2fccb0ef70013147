package e2e

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"testing"

	"aqverify/internal/artifact"
	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/server"
	"aqverify/internal/sig"
	"aqverify/internal/transport"
	"aqverify/internal/verify"
	"aqverify/internal/workload"
)

// buildForArtifact outsources the standard lines workload under a
// deterministic owner key — the same key across calls, as a real
// multi-process deployment shares one owner.
func buildForArtifact(t *testing.T, n int, shuffle int64, opts ...build.Option) *build.Result {
	t.Helper()
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{Rand: sig.DeterministicRand(7)})
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]build.Option{build.WithMode(verify.MultiSignature), build.WithShuffle(shuffle)}, opts...)
	res, err := build.Outsource(context.Background(),
		build.Spec{Table: tbl, Template: funcs.AffineLine(0, 1), Domain: dom, Signer: signer}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// serveArtifact opens dir (or one shard of it) and serves the loaded
// tree over HTTP exactly as `vqserve -load` does: reconstructed from
// the mapped blobs, bundle stamped with the artifact hash and "loaded"
// provenance.
func serveArtifact(t *testing.T, dir string, shardIdx int) *httptest.Server {
	t.Helper()
	var (
		a   *artifact.Artifact
		err error
	)
	if shardIdx >= 0 {
		a, err = artifact.OpenShard(dir, shardIdx)
	} else {
		a, err = artifact.Open(dir)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := a.Backend()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(b)
	if err != nil {
		t.Fatal(err)
	}
	p, err := transport.IFMHParams(srv, a.Public)
	if err != nil {
		t.Fatal(err)
	}
	p.Artifact = a.HashHex()
	p.Provenance = "loaded"
	h, err := transport.NewBackendHandler(srv, p)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// artifactQueries mixes the query kinds across the lines domain.
func artifactQueries(dom geometry.Box) []query.Query {
	var qs []query.Query
	for i := 0; i < 8; i++ {
		x := geometry.Point{dom.Lo[0] + (dom.Hi[0]-dom.Lo[0])*float64(2*i+1)/16}
		qs = append(qs, query.NewTopK(x, 1+i%5), query.NewRange(x, -1, 1))
	}
	return qs
}

// TestArtifactServeHTTP is the restart smoke: outsource, save, reopen
// the artifact from disk, serve the reconstructed tree over HTTP, and
// have a dialing client verify every answer — the raw table never
// touched between the save and the answers. The bundle advertises the
// artifact hash and the "loaded" provenance.
func TestArtifactServeHTTP(t *testing.T) {
	res := buildForArtifact(t, 90, 1)
	dir := t.TempDir()
	info, err := artifact.Save(dir, res)
	if err != nil {
		t.Fatal(err)
	}
	ts := serveArtifact(t, dir, -1)

	r, withVerify := dialVerifying(t, ts.URL)
	if cli := r.Client(); cli.Artifact() != info.HashHex() {
		t.Fatalf("client pinned artifact %q, saved %q", cli.Artifact(), info.HashHex())
	} else if cli.Provenance() != "loaded" {
		t.Fatalf("provenance %q, want loaded", cli.Provenance())
	}
	verifyAgainstOracle(t, r, withVerify, res.Tree.Table(), artifactQueries(res.Tree.Domain()))
}

// dialVerifying dials url as a data user does and derives the
// verification option from the advertised bundle.
func dialVerifying(t *testing.T, url string) (*transport.Remote, backend.Option) {
	t.Helper()
	r, err := transport.DialRemote(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	pub, ok := r.Client().Public()
	if !ok {
		t.Fatalf("%s does not advertise IFMH parameters", url)
	}
	return r, backend.WithVerify(pub)
}

// verifyAgainstOracle answers every query through b, verified, and
// compares the accepted window with the trusted local execution.
func verifyAgainstOracle(t *testing.T, b backend.Backend, withVerify backend.Option, tbl record.Table, qs []query.Query) {
	t.Helper()
	for _, q := range qs {
		ans, err := b.Query(context.Background(), q, withVerify)
		if err != nil {
			t.Fatalf("%v: %v", q.Kind, err)
		}
		want, err := query.Exec(tbl, funcs.AffineLine(0, 1), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Records) != len(want.Records) {
			t.Fatalf("%v: verified %d records, oracle %d", q.Kind, len(ans.Records), len(want.Records))
		}
	}
}

// TestArtifactFanout restarts a whole K-process deployment from one
// saved set: each shard process opens only its own blob, a
// vqfront-equivalent front-end composes them, and every answer
// verifies. The front-end republishes the set's hash, so an end client
// can still see which publication it is served from.
func TestArtifactFanout(t *testing.T) {
	res := buildForArtifact(t, 120, 1, build.WithShards(3, 0))
	dir := t.TempDir()
	info, err := artifact.Save(dir, res)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, 3)
	for i := range urls {
		urls[i] = serveArtifact(t, dir, i).URL
	}
	urls[0], urls[2] = urls[2], urls[0] // scrambled, like kprocess
	f, params, err := transport.DialFanout(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if params.Artifact != info.HashHex() {
		t.Fatalf("front-end republishes artifact %q, saved %q", params.Artifact, info.HashHex())
	}
	h, err := transport.NewBackendHandler(f, params)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(h)
	defer front.Close()
	r, withVerify := dialVerifying(t, front.URL)
	verifyAgainstOracle(t, r, withVerify, res.Set.Trees[0].Table(), artifactQueries(res.Plan.Domain))
}

// TestArtifactFanoutMismatch composes shard servers loaded from two
// different saved sets — same owner, same table, different publications
// — and requires the typed refusal naming both backends. A mix of a
// loaded shard and a freshly built one (no hash advertised) must still
// compose: that is what a rolling redeploy looks like.
func TestArtifactFanoutMismatch(t *testing.T) {
	resA := buildForArtifact(t, 120, 1, build.WithShards(2, 0))
	resB := buildForArtifact(t, 120, 2, build.WithShards(2, 0)) // different shuffle -> different artifact
	dirA, dirB := t.TempDir(), t.TempDir()
	if _, err := artifact.Save(dirA, resA); err != nil {
		t.Fatal(err)
	}
	if _, err := artifact.Save(dirB, resB); err != nil {
		t.Fatal(err)
	}
	urls := []string{serveArtifact(t, dirA, 0).URL, serveArtifact(t, dirB, 1).URL}
	_, _, err := transport.DialFanout(urls, nil)
	var mm *transport.ArtifactMismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("dialed mixed artifacts: err=%v, want ArtifactMismatchError", err)
	}
	if mm.URL == mm.OtherURL || mm.Hash == mm.OtherHash {
		t.Fatalf("mismatch error does not name two distinct backends: %v", mm)
	}

	// Mixed built + loaded composes: the fresh shard advertises no hash.
	srvB := newServer(t, local(t, resA.Set.Trees[1]))
	hB, err := transport.NewIFMHHandler(srvB, resA.Public)
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(hB)
	defer tsB.Close()
	if _, _, err := transport.DialFanout([]string{urls[0], tsB.URL}, nil); err != nil {
		t.Fatalf("mixed built/loaded deployment refused: %v", err)
	}
}

// TestArtifactLoadNeedsNoTable double-checks the headline property at
// the filesystem level: once saved, the artifact directory alone is
// enough to serve — the test re-opens it after the build's inputs are
// gone from scope and only files under dir are read.
func TestArtifactLoadNeedsNoTable(t *testing.T) {
	dir := t.TempDir()
	res := buildForArtifact(t, 60, 1)
	if _, err := artifact.Save(dir, res); err != nil {
		t.Fatal(err)
	}
	// Nothing but the three artifact files exists under dir.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 { // manifest + one tree blob
		t.Fatalf("artifact dir holds %d files, want 2", len(ents))
	}
	a, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Result.Tree.NumRecords() != 60 {
		t.Fatalf("loaded %d records, want 60", a.Result.Tree.NumRecords())
	}
}
