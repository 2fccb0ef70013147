package e2e

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/cache"
	"aqverify/internal/core"
	"aqverify/internal/front"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/transport"
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

// TestStreamBreakLeavesNothingBehind is ROADMAP aim 3 on every surface:
// no goroutine, in-flight slot or cache flight outlives a stream its
// consumer abandoned (an early break) or its caller canceled
// mid-stream, and the WithCounter total is the bytes of the items that
// were actually yielded.
//
// The break scenario keeps its batch inside shard 0 and its pool one
// wide: the counter is exact along a chain of single producers (Merge's
// lock step). Where siblings produce concurrently — a fanout's other
// children, a pool's other workers — an answer a sibling finished just
// before the break is charged and then dropped.
func TestStreamBreakLeavesNothingBehind(t *testing.T) {
	ss, plan, _ := surfaces(t, 80, 3, core.OneSignature)
	f, stack := frontStack(t, 80, 3)
	ss = append(ss, stack)
	spread := func(box geometry.Box) []query.Query {
		var qs []query.Query
		for i := 1; i <= 4; i++ {
			x := geometry.Point{box.Lo[0] + (box.Hi[0]-box.Lo[0])*float64(i)/5}
			qs = append(qs, query.NewTopK(x, 1+i), query.NewRange(x, -3, 3))
		}
		return qs
	}

	scenarios := []struct {
		name string
		qs   []query.Query
		// consume drains the stream its own way, reporting the answer
		// bytes it was yielded.
		consume func(t *testing.T, cancel context.CancelFunc, qs []query.Query, stream func(yield func(int, backend.BatchResult) bool)) uint64
	}{
		{"break after the first item", spread(plan.Boxes[0]),
			func(t *testing.T, _ context.CancelFunc, _ []query.Query, stream func(func(int, backend.BatchResult) bool)) uint64 {
				for _, r := range stream {
					if r.Err != nil {
						t.Fatalf("first item: %v", r.Err)
					}
					return uint64(len(r.Answer.Raw))
				}
				t.Fatal("stream yielded nothing")
				return 0
			}},
		{"cancel mid-stream", spread(plan.Domain),
			func(t *testing.T, cancel context.CancelFunc, qs []query.Query, stream func(func(int, backend.BatchResult) bool)) uint64 {
				var bytes uint64
				seen := make([]bool, len(qs))
				for i, r := range stream {
					cancel() // after the first item; a no-op from then on
					if seen[i] {
						t.Fatalf("index %d yielded twice", i)
					}
					seen[i] = true
					if r.Err == nil {
						bytes += uint64(len(r.Answer.Raw))
					} else if r.Answer.Raw != nil {
						t.Fatalf("index %d: failed item still carries bytes", i)
					}
				}
				for i, ok := range seen {
					if !ok {
						t.Fatalf("index %d never yielded: a canceled stream still accounts for every item", i)
					}
				}
				return bytes
			}},
	}

	for _, su := range ss {
		for _, sc := range scenarios {
			t.Run(su.name+"/"+sc.name, func(t *testing.T) {
				drain := func(ctx context.Context, opts ...backend.Option) {
					for i, r := range su.b.QueryStream(ctx, sc.qs, append(opts, su.verify)...) {
						if r.Err != nil {
							t.Fatalf("full stream, query %d: %v", i, r.Err)
						}
						if r.Answer.Epoch == 0 {
							t.Fatalf("full stream, query %d: answer carries no publication epoch", i)
						}
					}
				}
				drain(context.Background()) // warm connections and the cache before the baseline
				var baseline int
				settled(func() bool {
					n := runtime.NumGoroutine()
					stable := n == baseline
					baseline = n
					return stable
				})

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var ctr metrics.Counter
				yielded := sc.consume(t, cancel, sc.qs,
					su.b.QueryStream(ctx, sc.qs, su.verify, backend.WithCounter(&ctr), backend.WithWorkers(1)))
				if ctr.Bytes != yielded {
					t.Errorf("WithCounter saw %d answer bytes, the consumer was yielded %d", ctr.Bytes, yielded)
				}

				if !settled(func() bool { return runtime.NumGoroutine() <= baseline }) {
					buf := make([]byte, 1<<20)
					t.Errorf("%d goroutines, %d before the stream:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
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
				drain(again)
			})
		}
	}
}
