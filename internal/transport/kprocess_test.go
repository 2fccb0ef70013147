package transport

import (
	"context"
	"net/http/httptest"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/shard"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
)

// startShardProcess serves one shard's tree of the owner's set build on
// its own httptest server — what `vqserve -load dir -shard i` serves —
// standing in for one OS process of the multi-process deployment.
func startShardProcess(t *testing.T, tree *core.Tree) *httptest.Server {
	t.Helper()
	srv := newServer(t, local(t, tree))
	h, err := NewIFMHHandler(srv, tree.Public())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// kProcessFixture stands up the whole deployment: K shard processes, a
// vqfront-equivalent front-end (DialFanout + NewBackendHandler) on its
// own httptest server, and the single-tree baseline.
func kProcessFixture(t *testing.T, n, k int, mode verify.Mode) (front *httptest.Server, f *backend.Fanout, single *core.Tree, dom geometry.Box) {
	t.Helper()
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One owner build signs every shard; each process serves its tree.
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{Rand: sig.DeterministicRand(7)})
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{
		Mode: mode, Signer: signer, Domain: dom,
		Template: funcs.AffineLine(0, 1), Seed: 1,
	}
	plan, err := shard.NewPlan(dom, 0, k)
	if err != nil {
		t.Fatal(err)
	}
	set, err := shard.Build(tbl, p, plan)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, k)
	for i, tree := range set.Trees {
		urls[i] = startShardProcess(t, tree).URL
	}
	// Hand the URLs over in scrambled order: the front-end must recover
	// shard order from the advertised domains.
	for i, j := 0, len(urls)-1; i < j; i, j = i+1, j-1 {
		urls[i], urls[j] = urls[j], urls[i]
	}
	f, params, err := DialFanout(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumShards() != k {
		t.Fatalf("front-end composed %d shards, want %d", f.NumShards(), k)
	}
	h, err := NewBackendHandler(f, params)
	if err != nil {
		t.Fatal(err)
	}
	front = httptest.NewServer(h)
	t.Cleanup(front.Close)

	single, err = core.Build(tbl, p)
	if err != nil {
		t.Fatal(err)
	}
	return front, f, single, dom
}

// kProcessQueries mixes every query kind across the domain with queries
// pinned on the shard cuts and the domain corners.
func kProcessQueries(dom geometry.Box, cuts []float64) []query.Query {
	var qs []query.Query
	add := func(x float64, k int) {
		p := geometry.Point{x}
		qs = append(qs,
			query.NewTopK(p, k),
			query.NewBottomK(p, k),
			query.NewRange(p, -2, 2),
			query.NewKNN(p, k, 0.5),
		)
	}
	for i := 0; i < 12; i++ {
		add(dom.Lo[0]+(dom.Hi[0]-dom.Lo[0])*float64(2*i+1)/24, 1+i%6)
	}
	for _, c := range cuts {
		add(c, 3)
	}
	add(dom.Lo[0], 2)
	add(dom.Hi[0], 2)
	return qs
}

// TestKProcessIdentity is the acceptance identity for the multi-process
// deployment: K vqserve-equivalent processes behind a vqfront-equivalent
// front-end return, for every query kind — including queries exactly on
// shard cuts and at domain corners — verdicts and result windows
// identical to the single tree built over the full domain, under both
// signing modes. The client dials the front-end exactly as it would dial
// a single vqserve and verifies every answer, asked as one batch, one
// stream and one query at a time — the last names its routed shard too.
func TestKProcessIdentity(t *testing.T) {
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		front, f, single, dom := kProcessFixture(t, 120, 3, mode)
		qs := kProcessQueries(dom, f.Plan().Cuts)

		// The verifying client sees the front-end as one server.
		cli, withVerify := dialVerifying(t, front.URL, nil)
		if cli.Client().Shards() != 3 {
			t.Errorf("%v: front-end advertises %d shards, want 3", mode, cli.Client().Shards())
		}
		pub, ok := cli.Client().Public()
		if !ok {
			t.Fatal("front-end params are not IFMH")
		}
		answers, errs := cli.QueryBatch(context.Background(), qs, withVerify)

		for i, q := range qs {
			want, werr := single.Process(q, &metrics.Counter{})
			if (werr == nil) != (errs[i] == nil) {
				t.Fatalf("%v query %d: single err=%v, k-process err=%v", mode, i, werr, errs[i])
			}
			if werr != nil {
				continue
			}
			if vErr := verify.Verify(pub, q, want.Records, &want.VO, &metrics.Counter{}); vErr != nil {
				t.Fatalf("%v query %d: single-tree answer rejected: %v", mode, i, vErr)
			}
			if len(answers[i].Records) != len(want.Records) {
				t.Fatalf("%v query %d: k-process returned %d records, single %d",
					mode, i, len(answers[i].Records), len(want.Records))
			}
			for j := range want.Records {
				if answers[i].Records[j].ID != want.Records[j].ID {
					t.Fatalf("%v query %d: record %d differs (%d vs %d)",
						mode, i, j, answers[i].Records[j].ID, want.Records[j].ID)
				}
			}
			wantShard, err := f.Plan().Route(q.X)
			if err != nil {
				t.Fatal(err)
			}
			if answers[i].Shard != wantShard {
				t.Fatalf("%v query %d: answered by shard %d, routing says %d",
					mode, i, answers[i].Shard, wantShard)
			}
			// Window identity down to the VO layout.
			got, err := wire.DecodeIFMH(answers[i].Raw)
			if err != nil {
				t.Fatal(err)
			}
			if got.VO.ListLen != want.VO.ListLen || got.VO.Start != want.VO.Start {
				t.Fatalf("%v query %d: window (%d,%d) vs single (%d,%d)", mode, i,
					got.VO.Start, got.VO.ListLen, want.VO.Start, want.VO.ListLen)
			}
			// Asked alone, the query is a batch of one: the same bytes and
			// the same routed shard, not an unattributed answer.
			one, err := cli.Query(context.Background(), q, withVerify)
			if err != nil {
				t.Fatalf("%v query %d asked alone: %v", mode, i, err)
			}
			if string(one.Raw) != string(answers[i].Raw) {
				t.Fatalf("%v query %d asked alone: bytes differ from the buffered exchange", mode, i)
			}
			if one.Shard != wantShard {
				t.Fatalf("%v query %d asked alone: answered by shard %d, routing says %d", mode, i, one.Shard, wantShard)
			}
		}

		// The pipelined wire transport must reproduce the buffered
		// verdicts exactly: the front-end merges K per-shard HTTP
		// streams in completion order, but what arrives — bytes,
		// verified records, shard attributions — is the same batch.
		seen := make([]bool, len(qs))
		for i, r := range cli.QueryStream(context.Background(), qs, withVerify) {
			if seen[i] {
				t.Fatalf("%v: streamed index %d twice", mode, i)
			}
			seen[i] = true
			if r.Err != nil {
				t.Fatalf("%v streamed query %d: %v", mode, i, r.Err)
			}
			if string(r.Answer.Raw) != string(answers[i].Raw) {
				t.Fatalf("%v streamed query %d: bytes differ from the buffered exchange", mode, i)
			}
			if r.Answer.Shard != answers[i].Shard {
				t.Fatalf("%v streamed query %d: shard %d vs buffered %d",
					mode, i, r.Answer.Shard, answers[i].Shard)
			}
			if len(r.Answer.Records) != len(answers[i].Records) {
				t.Fatalf("%v streamed query %d: %d verified records vs buffered %d",
					mode, i, len(r.Answer.Records), len(answers[i].Records))
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("%v: stream never delivered query %d", mode, i)
			}
		}
	}
}

// TestKProcessSingleQueryAndStats drives single queries (batches of one)
// through the front-end and checks the front-end's own /stats tally.
func TestKProcessSingleQueryAndStats(t *testing.T) {
	front, f, single, dom := kProcessFixture(t, 80, 2, verify.MultiSignature)
	cli, withVerify := dialVerifying(t, front.URL, nil)
	ctx := context.Background()
	probe := append([]float64{(dom.Lo[0] + dom.Hi[0]) / 2}, f.Plan().Cuts...)
	served := 0
	for _, x := range probe {
		q := query.NewTopK(geometry.Point{x}, 3)
		ans, err := cli.Query(ctx, q, withVerify)
		if err != nil {
			t.Fatal(err)
		}
		recs := ans.Records
		served++
		want, err := single.Process(q, &metrics.Counter{})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(want.Records) {
			t.Fatalf("query at %v: %d records, single tree %d", x, len(recs), len(want.Records))
		}
	}
	// An unroutable query is refused by the front-end.
	if _, err := cli.Query(ctx, query.NewTopK(geometry.Point{dom.Hi[0] + 1}, 1), withVerify); err == nil {
		t.Fatal("out-of-domain query answered")
	}

	stats := getStats(t, front.URL)
	if stats.Backend != "ifmh-multi" {
		t.Errorf("stats backend = %q", stats.Backend)
	}
	if stats.Queries != served || stats.Errors != 1 {
		t.Errorf("stats queries=%d errors=%d, want %d/1", stats.Queries, stats.Errors, served)
	}
	if stats.Shards != 2 || len(stats.PerShard) != 2 {
		t.Fatalf("stats shards=%d perShard=%d, want 2/2", stats.Shards, len(stats.PerShard))
	}
	sum := 0
	for _, s := range stats.PerShard {
		sum += s.Queries
	}
	if sum != served {
		t.Errorf("per-shard tallies sum to %d, want %d", sum, served)
	}
}
