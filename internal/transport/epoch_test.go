package transport

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/server"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
)

// epochFixture outsources a table and serves it over HTTP, returning
// the owner's product, the live server (for Swap) and the test server.
func epochFixture(t *testing.T) (*build.Result, *server.Server, *httptest.Server, geometry.Box) {
	t.Helper()
	ctx := context.Background()
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := build.Outsource(ctx, build.Spec{
		Table: tbl, Template: funcs.AffineLine(0, 1), Domain: dom, Signer: signer,
	}, build.WithShuffle(11))
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, local(t, res.Tree))
	h, err := NewIFMHHandler(srv, res.Public)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return res, srv, ts, dom
}

// mutated applies one in-place update to the product, producing the
// next epoch.
func mutated(t *testing.T, prev *build.Result, i int) *build.Result {
	t.Helper()
	rows := prev.Tree.Table().Records
	upd := rows[i%len(rows)]
	upd.Attrs = append([]float64(nil), upd.Attrs...)
	upd.Attrs[0] += 0.01
	next, err := build.Apply(context.Background(), prev, build.Update(i%len(rows), upd))
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// TestEpochPinAndRefresh walks the full client-side epoch lifecycle
// over real HTTP: the pin lands at dial, epoch words travel in batch
// and stream answers, a server swap turns the next answers into typed
// EpochErrors (batch and stream alike), /params and /stats report the
// live epoch, and Refresh re-pins so re-queries verify at the new
// epoch.
func TestEpochPinAndRefresh(t *testing.T) {
	ctx := context.Background()
	res, srv, ts, dom := epochFixture(t)
	r, err := DialRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != 1 || r.Client().Epoch() != 1 {
		t.Fatalf("pinned epoch = %d, want 1", r.Epoch())
	}
	// The session publishes one epoch, whichever accessor is asked.
	published := func(want uint64) {
		t.Helper()
		pub, ok := r.Client().Public()
		if got := r.Client().Params().Epoch; !ok || pub.Epoch != want || got != want {
			t.Fatalf("pinned epoch %d, but Public().Epoch = %d and Params().Epoch = %d", want, pub.Epoch, got)
		}
	}
	published(1)

	x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	qs := []query.Query{query.NewTopK(x, 3), query.NewRange(x, -1, 1)}
	answers, errs := r.QueryBatch(ctx, qs, backend.WithVerify(res.Public))
	for i := range qs {
		if errs[i] != nil {
			t.Fatalf("epoch-1 query %d: %v", i, errs[i])
		}
		if answers[i].Epoch != 1 {
			t.Fatalf("epoch-1 answer %d stamped %d", i, answers[i].Epoch)
		}
	}
	for i, br := range r.QueryStream(ctx, qs) {
		if br.Err != nil || br.Answer.Epoch != 1 {
			t.Fatalf("epoch-1 stream item %d: epoch %d err %v", i, br.Answer.Epoch, br.Err)
		}
	}

	// The owner mutates and the server swaps the new bundle in.
	res2 := mutated(t, res, 0)
	if err := srv.Swap(local(t, res2.Tree)); err != nil {
		t.Fatal(err)
	}

	// /params serves the live epoch; /stats reports epoch and swaps.
	var p Params
	getJSON(t, ts.URL+"/params", &p)
	if p.Epoch != 2 {
		t.Errorf("/params epoch = %d, want 2", p.Epoch)
	}
	var stats struct {
		Epoch uint64 `json:"epoch"`
		Swaps int    `json:"swaps"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Epoch != 2 || stats.Swaps != 1 {
		t.Errorf("/stats epoch=%d swaps=%d, want 2/1", stats.Epoch, stats.Swaps)
	}

	// The pinned client now gets typed staleness errors, batch and
	// stream alike — not misleading verification failures.
	_, errs = r.QueryBatch(ctx, qs, backend.WithVerify(res.Public))
	for i := range qs {
		var ee *backend.EpochError
		if !errors.As(errs[i], &ee) || ee.Want != 1 || ee.Got != 2 {
			t.Fatalf("post-swap batch item %d: err = %v, want EpochError{1,2}", i, errs[i])
		}
	}
	for i, br := range r.QueryStream(ctx, qs) {
		var ee *backend.EpochError
		if !errors.As(br.Err, &ee) {
			t.Fatalf("post-swap stream item %d: err = %v, want EpochError", i, br.Err)
		}
	}

	// Recovery: refresh the pin, verify against the republished bundle.
	e, err := r.Client().Refresh(ctx)
	if err != nil || e != 2 {
		t.Fatalf("refresh: epoch %d, err %v", e, err)
	}
	published(2)
	answers, errs = r.QueryBatch(ctx, qs, backend.WithVerify(res2.Public))
	for i := range qs {
		if errs[i] != nil || answers[i].Epoch != 2 || len(answers[i].Records) == 0 {
			t.Fatalf("epoch-2 query %d: epoch %d, %d records, err %v",
				i, answers[i].Epoch, len(answers[i].Records), errs[i])
		}
	}
}

// TestStaleAnswerIsEpochErrorOnEveryEntryPoint is the regression test
// for the drift the one-plane cleanup removed: the deleted
// HTTPClient.QueryBatchCtx skipped the pin check, so after a swap a
// pinned client saw an opaque verification failure (the epoch-2 answer
// checked against epoch-1 parameters) instead of the typed staleness
// signal. Every client entry point — a single query, the buffered batch
// and the pipelined stream (inline and pooled verification), raw or
// verifying against the now-stale bundle — must report
// *backend.EpochError and never ErrVerification. A single query used to
// travel a route with no epoch word and was stamped with the pin, so it
// was accepted against the stale bundle.
func TestStaleAnswerIsEpochErrorOnEveryEntryPoint(t *testing.T) {
	ctx := context.Background()
	res, srv, ts, dom := epochFixture(t)
	r, err := DialRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Swap(local(t, mutated(t, res, 0).Tree)); err != nil {
		t.Fatal(err)
	}

	x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	qs := []query.Query{query.NewTopK(x, 3), query.NewRange(x, -1, 1), query.NewKNN(x, 2, 0)}
	stale := backend.WithVerify(res.Public)
	single := func(r *Remote, opts ...backend.Option) []error {
		errs := make([]error, len(qs))
		for i, q := range qs {
			_, errs[i] = r.Query(ctx, q, opts...)
		}
		return errs
	}
	batch := func(r *Remote, opts ...backend.Option) []error {
		_, errs := r.QueryBatch(ctx, qs, opts...)
		return errs
	}
	stream := func(r *Remote, opts ...backend.Option) []error {
		errs := make([]error, len(qs))
		for i, br := range r.QueryStream(ctx, qs, opts...) {
			errs[i] = br.Err
		}
		return errs
	}
	for _, tc := range []struct {
		name string
		errs []error
	}{
		{"query raw", single(r)},
		{"query verify", single(r, stale)},
		{"batch raw", batch(r)},
		{"batch verify", batch(r, stale)},
		{"stream raw", stream(r)},
		{"stream verify inline", stream(r, stale, backend.WithWorkers(1))},
		{"stream verify pooled", stream(r, stale, backend.WithWorkers(4))},
	} {
		for i, err := range tc.errs {
			var ee *backend.EpochError
			if !errors.As(err, &ee) || ee.Want != 1 || ee.Got != 2 {
				t.Errorf("%s item %d: err = %v, want EpochError{1,2}", tc.name, i, err)
			}
			if errors.Is(err, verify.ErrVerification) {
				t.Errorf("%s item %d: staleness surfaced as a verification failure: %v", tc.name, i, err)
			}
		}
	}
}

// getJSON fetches a JSON endpoint into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestKProcessEpochRaceUnderSwap is the multi-process half of the
// query-during-swap guarantee: K shard processes behind a
// vqfront-equivalent front-end are swapped to new epochs shard by
// shard — a rolling deployment — while clients hammer the batch and
// stream planes through the front-end. Every successful answer must
// verify against the published parameters of the exact epoch it is
// stamped with, every failure must be the typed staleness signal
// (recovered by Refresh), and the front-end's advertised epoch must
// converge to the rollout's target. Run under -race this also pins the
// relay path's pin tracking.
func TestKProcessEpochRaceUnderSwap(t *testing.T) {
	ctx := context.Background()
	const k = 3
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 90, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{Rand: sig.DeterministicRand(13)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := build.Outsource(ctx, build.Spec{
		Table: tbl, Template: funcs.AffineLine(0, 1), Domain: dom, Signer: signer,
	}, build.WithShuffle(13), build.WithShards(k, 0))
	if err != nil {
		t.Fatal(err)
	}
	// One vqserve-equivalent process per shard, handles kept for Swap.
	srvs := make([]*server.Server, k)
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		srv := newServer(t, local(t, res.Set.Trees[i]))
		h, err := NewIFMHHandler(srv, res.Set.Trees[i].Public())
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		srvs[i] = srv
		urls[i] = ts.URL
	}
	f, params, err := DialFanout(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	fh, err := NewBackendHandler(f, params)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(fh)
	t.Cleanup(front.Close)

	r, err := DialRemote(front.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != 1 {
		t.Fatalf("front-end pinned epoch %d, want 1", r.Epoch())
	}

	var pubs sync.Map // epoch -> verify.PublicParams, stored before any swap
	pubs.Store(uint64(1), res.Public)

	qs := make([]query.Query, 0, 9)
	for i := 0; i < 9; i++ {
		x := dom.Lo[0] + (dom.Hi[0]-dom.Lo[0])*float64(i+1)/10
		qs = append(qs, query.NewTopK(geometry.Point{x}, 1+i%3))
	}

	const lastEpoch = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the owner: mutate once, then roll the swap across shards
		defer wg.Done()
		defer close(stop)
		cur := res
		for e := uint64(2); e <= lastEpoch; e++ {
			i := int(e) % tbl.Len()
			rows := cur.Set.Trees[0].Table().Records
			upd := rows[i]
			upd.Attrs = append([]float64(nil), upd.Attrs...)
			upd.Attrs[0] += 0.01
			next, err := build.Apply(ctx, cur, build.Update(i, upd))
			if err != nil {
				t.Errorf("apply to epoch %d: %v", e, err)
				return
			}
			pubs.Store(e, next.Public)
			for sh := 0; sh < k; sh++ { // rolling, shard by shard
				if err := srvs[sh].Swap(local(t, next.Set.Trees[sh])); err != nil {
					t.Errorf("swap shard %d to epoch %d: %v", sh, e, err)
					return
				}
			}
			cur = next
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			done := false
			for !done {
				select {
				case <-stop:
					done = true // one final pass after the rollout
				default:
				}
				stale := false
				check := func(i int, ans backend.Answer, err error) {
					if err != nil {
						var ee *backend.EpochError
						if !errors.As(err, &ee) {
							t.Errorf("query %d failed mid-rollout with a non-epoch error: %v", i, err)
						}
						stale = true
						return
					}
					pv, ok := pubs.Load(ans.Epoch)
					if !ok {
						t.Errorf("answer stamped with unpublished epoch %d", ans.Epoch)
						return
					}
					dec, derr := wire.DecodeIFMH(ans.Raw)
					if derr != nil {
						t.Errorf("epoch %d answer not decodable: %v", ans.Epoch, derr)
						return
					}
					if verr := verify.Verify(pv.(verify.PublicParams), qs[i], dec.Records, &dec.VO, nil); verr != nil {
						t.Errorf("answer does not verify against its own epoch %d: %v", ans.Epoch, verr)
					}
				}
				if w%2 == 0 {
					answers, errs := r.QueryBatch(ctx, qs)
					for i := range qs {
						check(i, answers[i], errs[i])
					}
				} else {
					for i, br := range r.QueryStream(ctx, qs) {
						check(i, br.Answer, br.Err)
					}
				}
				if stale {
					if _, err := r.Client().Refresh(ctx); err != nil {
						t.Errorf("refresh: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Convergence: one refresh against the settled deployment, then a
	// fully verified batch at the rollout's target epoch.
	e, err := r.Client().Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if e != lastEpoch {
		t.Fatalf("front-end advertises epoch %d after the rollout, want %d", e, lastEpoch)
	}
	pv, _ := pubs.Load(uint64(lastEpoch))
	answers, errs := r.QueryBatch(ctx, qs, backend.WithVerify(pv.(verify.PublicParams)))
	for i := range qs {
		if errs[i] != nil || answers[i].Epoch != lastEpoch {
			t.Fatalf("settled query %d: epoch %d err %v", i, answers[i].Epoch, errs[i])
		}
	}
}

// TestRefreshRefusesChangedIdentity: only the epoch may move on a
// Refresh. A server that republishes /params under a different backend
// name, verifier key or template — the anchors CheckSameBundle composes
// a fleet under — is refused, and the pin stays where it was.
func TestRefreshRefusesChangedIdentity(t *testing.T) {
	_, _, ts, _ := epochFixture(t)
	for name, change := range map[string]func(*Params){
		"backend":  func(p *Params) { p.Backend = "ifmh-multi" },
		"verifier": func(p *Params) { p.Verifier = "AAAA" + p.Verifier[4:] },
		"template": func(p *Params) { p.Template.BiasAttr++ },
	} {
		t.Run(name, func(t *testing.T) {
			var republish atomic.Pointer[func(*Params)] // nil: the honest bundle
			impostor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				var p Params
				getJSON(t, ts.URL+"/params", &p)
				p.Epoch = 7
				if f := republish.Load(); f != nil {
					(*f)(&p)
				}
				json.NewEncoder(w).Encode(p)
			}))
			defer impostor.Close()
			c, err := Dial(impostor.URL, nil)
			if err != nil {
				t.Fatal(err)
			}
			republish.Store(&change)
			if e, err := c.Refresh(context.Background()); err == nil {
				t.Fatalf("refresh accepted a changed %s (epoch %d)", name, e)
			}
			republish.Store(nil)
			if e, err := c.Refresh(context.Background()); err != nil || e != 7 || c.Epoch() != 7 {
				t.Fatalf("honest refresh: epoch %d (pinned %d), err %v", e, c.Epoch(), err)
			}
		})
	}
}
