package cache_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/cache"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/server"
	"aqverify/internal/transport"
	"aqverify/internal/verify"

	"net/http/httptest"
)

// nextEpoch applies one in-place update to the product, producing the
// next publication epoch with the same signer lineage.
func nextEpoch(t *testing.T, prev *build.Result) *build.Result {
	t.Helper()
	tree := prev.Tree
	if tree == nil {
		tree = prev.Set.Trees[0]
	}
	rows := tree.Table().Records
	upd := rows[0]
	upd.Attrs = append([]float64(nil), upd.Attrs...)
	upd.Attrs[0] += 0.01
	next, err := build.Apply(context.Background(), prev, build.Update(0, upd))
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// baseline captures the uncached per-epoch answers for the probe set,
// so racing answers can be checked byte for byte against the exact
// epoch they claim to be from.
func baseline(t *testing.T, b backend.Backend, qs []query.Query) [][]byte {
	t.Helper()
	answers, errs := b.QueryBatch(context.Background(), qs)
	out := make([][]byte, len(qs))
	for i := range qs {
		if errs[i] != nil {
			t.Fatalf("baseline query %d: %v", i, errs[i])
		}
		out[i] = answers[i].Raw
	}
	return out
}

// assertEpochHitReset pins the post-swap counter discipline: the
// per-epoch hit gauge was reset by the observed swap (the warm-up hits
// are no longer in it), and one more hit moves both gauges in step.
func assertEpochHitReset(t *testing.T, c *cache.Cache, warmHits int64, q query.Query) {
	t.Helper()
	ctx := context.Background()
	pre := c.CacheStats()
	if pre.EpochHits+warmHits > pre.Hits {
		t.Fatalf("EpochHits %d not reset by the swap (cumulative %d, %d pre-swap warm hits)",
			pre.EpochHits, pre.Hits, warmHits)
	}
	if _, err := c.Query(ctx, q); err != nil { // miss at the new epoch
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, q); err != nil { // hit at the new epoch
		t.Fatal(err)
	}
	post := c.CacheStats()
	if post.Hits != pre.Hits+1 || post.EpochHits != pre.EpochHits+1 {
		t.Fatalf("post-swap hit moved gauges %d/%d -> %d/%d, want both +1",
			pre.Hits, pre.EpochHits, post.Hits, post.EpochHits)
	}
}

// TestSwapInvalidationInProcess races queries through the cache against
// server.Swap, over a local tree and over a sharded set. The invariant
// is byte-level: every answer is stamped epoch 1 or 2 and is identical
// to the uncached answer of exactly that epoch — a swap may land
// mid-flight, but the cache never mixes epochs. After the swap settles,
// fresh queries serve epoch 2, the stranded epoch-1 entries are never
// served again, and the per-epoch hit gauge has been reset.
func TestSwapInvalidationInProcess(t *testing.T) {
	cases := []struct {
		name    string
		sharded bool
	}{{"local", false}, {"sharded", true}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			var opts []build.Option
			if tc.sharded {
				opts = append(opts, build.WithShards(3, 0))
			}
			res1 := outsrc(t, 80, verify.OneSignature, opts...)
			res2 := nextEpoch(t, res1)

			mkBackend := func(r *build.Result) server.Backend {
				if tc.sharded {
					sb, err := backend.NewSharded(r.Set)
					if err != nil {
						t.Fatal(err)
					}
					return sb
				}
				return local(t, r.Tree)
			}
			srv := serve(t, mkBackend(res1))
			c, err := cache.Wrap(srv)
			if err != nil {
				t.Fatal(err)
			}

			var dom geometry.Box
			if tc.sharded {
				dom = res1.Plan.Domain
			} else {
				dom = res1.Tree.Domain()
			}
			qs := spreadQueries(dom, 6)

			base := make(map[uint64][][]byte, 2)
			for e, r := range map[uint64]*build.Result{1: res1, 2: res2} {
				base[e] = baseline(t, serve(t, mkBackend(r)), qs)
			}

			// Warm the cache: one miss pass, one hit pass.
			for pass := 0; pass < 2; pass++ {
				for i, q := range qs {
					ans, err := c.Query(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					if ans.Epoch != 1 || string(ans.Raw) != string(base[1][i]) {
						t.Fatalf("warm query %d served epoch %d", i, ans.Epoch)
					}
				}
			}
			warmHits := c.CacheStats().Hits

			// Hammer all three entry points while the swap lands.
			var rounds atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			check := func(i int, ans backend.Answer, err error) {
				if err != nil {
					t.Errorf("query %d failed mid-swap: %v", i, err)
					return
				}
				want, ok := base[ans.Epoch]
				if !ok {
					t.Errorf("query %d stamped unknown epoch %d", i, ans.Epoch)
					return
				}
				if string(ans.Raw) != string(want[i]) {
					t.Errorf("query %d: bytes are not epoch %d's answer", i, ans.Epoch)
				}
			}
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						switch g % 3 {
						case 0:
							for i, q := range qs {
								ans, err := c.Query(ctx, q)
								check(i, ans, err)
							}
						case 1:
							answers, errs := c.QueryBatch(ctx, qs, backend.WithWorkers(2))
							for i := range qs {
								check(i, answers[i], errs[i])
							}
						default:
							for i, r := range c.QueryStream(ctx, qs) {
								check(i, r.Answer, r.Err)
							}
						}
						rounds.Add(1)
					}
				}(g)
			}
			waitFor(t, "pre-swap rounds", func() bool { return rounds.Load() >= 4 })
			if err := srv.Swap(mkBackend(res2)); err != nil {
				t.Fatal(err)
			}
			post := rounds.Load()
			waitFor(t, "post-swap rounds", func() bool { return rounds.Load() >= post+8 })
			close(stop)
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}

			// Settled: fresh lookups pin epoch 2 and the stranded epoch-1
			// entries are never served again.
			for i, q := range qs {
				ans, err := c.Query(ctx, q, backend.WithVerify(res2.Public))
				if err != nil {
					t.Fatalf("settled query %d: %v", i, err)
				}
				if ans.Epoch != 2 || string(ans.Raw) != string(base[2][i]) {
					t.Fatalf("settled query %d served epoch %d after the swap", i, ans.Epoch)
				}
				if ans.Records == nil {
					t.Fatalf("settled query %d did not verify", i)
				}
			}
			assertEpochHitReset(t, c, warmHits, query.NewTopK(geometry.Point{dom.Lo[0] + (dom.Hi[0]-dom.Lo[0])*0.013}, 2))
		})
	}
}

// TestSwapInvalidationFanout is the K-process half: shard servers
// behind a cache-fronted fanout swap to a new epoch. The pinned client
// session keeps serving its cached epoch-1 answers (the pin contract),
// fresh batch queries surface the typed staleness signal uncached, and
// after Refresh re-pins every shard client the old entries are
// stranded — re-queries walk epoch 2 and verify against its bundle.
func TestSwapInvalidationFanout(t *testing.T) {
	ctx := context.Background()
	const k = 3
	res1 := outsrc(t, 90, verify.OneSignature, build.WithShards(k, 0))
	res2 := nextEpoch(t, res1)
	dom := res1.Plan.Domain

	srvs := make([]*server.Server, k)
	remotes := make([]*transport.Remote, k)
	kids := make([]backend.Backend, k)
	for i := 0; i < k; i++ {
		srv := serve(t, local(t, res1.Set.Trees[i]))
		h, err := transport.NewIFMHHandler(srv, res1.Set.Trees[i].Public())
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		r, err := transport.DialRemote(ts.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		srvs[i], remotes[i], kids[i] = srv, r, r
	}
	f, err := backend.NewFanout(res1.Plan, kids)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.Wrap(f)
	if err != nil {
		t.Fatal(err)
	}

	qs := spreadQueries(dom, 6)
	for pass := 0; pass < 2; pass++ { // warm: miss pass, hit pass
		for i, q := range qs {
			ans, err := c.Query(ctx, q, backend.WithVerify(res1.Public))
			if err != nil {
				t.Fatal(err)
			}
			if ans.Epoch != 1 || ans.Records == nil {
				t.Fatalf("warm query %d: epoch %d verified %v", i, ans.Epoch, ans.Records != nil)
			}
		}
	}
	warmHits := c.CacheStats().Hits

	// The owner swaps every shard process to epoch 2.
	for i := 0; i < k; i++ {
		if err := srvs[i].Swap(local(t, res2.Set.Trees[i])); err != nil {
			t.Fatal(err)
		}
	}

	// The pinned session still serves its cached epoch-1 answers — the
	// client's epoch view is the pin, and the cache is coherent with it.
	ans, err := c.Query(ctx, qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if ans.Epoch != 1 {
		t.Fatalf("cached answer re-stamped epoch %d before Refresh", ans.Epoch)
	}

	// Fresh queries cross the wire and come back as typed staleness
	// errors with routing attribution intact — and are never cached.
	// k=7 is outside spreadQueries' 1..5 range, so none of these can
	// collide with a warm cache key.
	fresh := make([]query.Query, 5)
	for i := range fresh {
		x := dom.Lo[0] + (dom.Hi[0]-dom.Lo[0])*float64(i+1)/float64(len(fresh)+1)
		fresh[i] = query.NewTopK(geometry.Point{x}, 7)
	}
	answers, errs := c.QueryBatch(ctx, fresh)
	for i := range fresh {
		var ee *backend.EpochError
		if !errors.As(errs[i], &ee) || ee.Want != 1 || ee.Got != 2 {
			t.Fatalf("post-swap fresh query %d: err %v, want EpochError{1,2}", i, errs[i])
		}
		if answers[i].Shard < 0 || answers[i].Shard >= k {
			t.Fatalf("post-swap fresh query %d lost shard attribution: %d", i, answers[i].Shard)
		}
	}

	// Refresh re-pins every shard client; the cache observes the epoch
	// move on its next lookup and strands the epoch-1 entries.
	for i := 0; i < k; i++ {
		e, err := remotes[i].Client().Refresh(ctx)
		if err != nil || e != 2 {
			t.Fatalf("refresh shard %d: epoch %d err %v", i, e, err)
		}
	}
	for i, q := range append(append([]query.Query{}, qs...), fresh...) {
		ans, err := c.Query(ctx, q, backend.WithVerify(res2.Public))
		if err != nil {
			t.Fatalf("re-pinned query %d: %v", i, err)
		}
		if ans.Epoch != 2 || ans.Records == nil {
			t.Fatalf("re-pinned query %d: epoch %d verified %v", i, ans.Epoch, ans.Records != nil)
		}
	}
	st := c.CacheStats()
	if st.Misses == 0 || st.EpochHits+warmHits > st.Hits {
		t.Fatalf("stranded entries were served as epoch-2 hits: %+v (warm hits %d)", st, warmHits)
	}
	assertEpochHitReset(t, c, warmHits, query.NewTopK(geometry.Point{dom.Lo[0] + (dom.Hi[0]-dom.Lo[0])*0.017}, 2))
}
