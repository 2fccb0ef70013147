package e2e

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/cache"
	"aqverify/internal/front"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/transport"
	"aqverify/internal/verify"
	"aqverify/internal/workload"
)

// frontStack stands up the vqfront -cache deployment end to end: k
// shard servers, a front.Frontend over them (one replica each, gated),
// the cache tier over the front, the HTTP handler over that, and a
// dialed client — the longest chain of wrapping backends the plane
// composes.
func frontStack(t testing.TB, n, k int) (*front.Frontend, surface) {
	t.Helper()
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	set := outsource(t, tbl, dom, build.WithShuffle(3), build.WithShards(k, 0))
	groups := make([][]string, k)
	for i, tree := range set.Set.Trees {
		groups[i] = []string{serve(t, local(t, tree), set.Public)}
	}
	f, params, err := front.DialFront(groups, nil, front.Options{MaxInFlight: 4, ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	cached, err := cache.Wrap(f)
	if err != nil {
		t.Fatal(err)
	}
	h, err := transport.NewBackendHandler(cached, params)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	remote, err := transport.DialRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f, surface{"cached-front", remote, backend.WithVerify(set.Public)}
}

// settled closes the idle keep-alive connections (each parks two
// goroutines per side) and polls until ok holds.
func settled(ok func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		if ok() {
			return true
		}
	}
	return false
}

// TestCanceledBatchLeavesNothingBehind is ROADMAP aim 3 on every
// surface: no goroutine, in-flight slot or cache flight outlives a
// batch its caller canceled, and a canceled batch still accounts for
// every index — answered, or failed with ctx's error and no bytes. The
// cancel lands before the batch starts and at two offsets into it, so
// on every surface some cancels land while items are in flight.
func TestCanceledBatchLeavesNothingBehind(t *testing.T) {
	ss, plan, _ := surfaces(t, 80, 3, verify.OneSignature)
	f, stack := frontStack(t, 80, 3)
	ss = append(ss, stack)
	var qs []query.Query
	for i := 1; i <= 4; i++ {
		x := geometry.Point{plan.Domain.Lo[0] + (plan.Domain.Hi[0]-plan.Domain.Lo[0])*float64(i)/5}
		qs = append(qs, query.NewTopK(x, 1+i), query.NewRange(x, -3, 3))
	}

	for _, su := range ss {
		for _, after := range []time.Duration{0, 100 * time.Microsecond, time.Millisecond} {
			t.Run(fmt.Sprintf("%s/cancel_after_%dus", su.name, after.Microseconds()), func(t *testing.T) {
				full := func(ctx context.Context) {
					answers, errs := su.b.QueryBatch(ctx, qs, su.verify)
					for i, err := range errs {
						if err != nil {
							t.Fatalf("full batch, query %d: %v", i, err)
						}
						if answers[i].Epoch == 0 {
							t.Fatalf("full batch, query %d: answer carries no publication epoch", i)
						}
					}
				}
				full(context.Background()) // warm connections and the cache before the baseline
				var baseline int
				settled(func() bool {
					n := runtime.NumGoroutine()
					stable := n == baseline
					baseline = n
					return stable
				})

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if after == 0 {
					cancel()
				} else {
					defer time.AfterFunc(after, cancel).Stop()
				}
				answers, errs := su.b.QueryBatch(ctx, qs, su.verify, backend.WithWorkers(1))
				for i, err := range errs {
					if err == nil {
						continue
					}
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("index %d: %v; a canceled batch answers an index or fails it with ctx's error", i, err)
					}
					if answers[i].Raw != nil {
						t.Fatalf("index %d: failed item still carries bytes", i)
					}
				}

				if !settled(func() bool { return runtime.NumGoroutine() <= baseline }) {
					buf := make([]byte, 1<<20)
					t.Errorf("%d goroutines, %d before the batch:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
				}
				if !settled(func() bool {
					snap := f.Snapshot()
					busy := snap.InFlight
					for _, sh := range snap.Shards {
						for _, r := range sh.Replicas {
							busy += r.InFlight
						}
					}
					return busy == 0
				}) {
					t.Errorf("front still holds in-flight slots: %+v", f.Snapshot())
				}
				// An identical follow-up is answered in full: no flight was
				// left for it to wait on.
				again, stop := context.WithTimeout(context.Background(), 10*time.Second)
				defer stop()
				full(again)
			})
		}
	}
}
