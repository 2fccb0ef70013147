package cache_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/cache"
	"aqverify/internal/query"
	"aqverify/internal/verify"
)

// gatedBackend counts inner walks and holds each one at the gate until
// the test releases it — the instrument the single-flight proof needs:
// with the walk provably in flight, every later identical query must
// collapse onto it.
type gatedBackend struct {
	inner backend.Backend
	walks atomic.Int64
	gate  chan struct{}
}

func newGated(inner backend.Backend) *gatedBackend {
	return &gatedBackend{inner: inner, gate: make(chan struct{})}
}

func (b *gatedBackend) Name() string { return b.inner.Name() }

func (b *gatedBackend) Epoch() uint64 {
	if e, ok := b.inner.(interface{ Epoch() uint64 }); ok {
		return e.Epoch()
	}
	return 0
}

func (b *gatedBackend) Query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	b.walks.Add(1)
	select {
	case <-b.gate:
	case <-ctx.Done():
		return backend.Answer{}, ctx.Err()
	}
	return b.inner.Query(ctx, q, opts...)
}

func (b *gatedBackend) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	answers := make([]backend.Answer, len(qs))
	errs := make([]error, len(qs))
	for i, q := range qs {
		answers[i], errs[i] = b.Query(ctx, q, opts...)
	}
	return answers, errs
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleFlightCollapse is the single-flight proof: K goroutines
// issue the identical query against a counted, gated backend; exactly
// one inner walk happens, all K callers come back with verified
// answers, and a waiter canceled mid-flight gets its own ctx error
// without poisoning the flight for the others.
func TestSingleFlightCollapse(t *testing.T) {
	res := outsrc(t, 80, verify.OneSignature)
	local, err := backend.NewLocal(res.Tree)
	if err != nil {
		t.Fatal(err)
	}
	gated := newGated(local)
	c, err := cache.Wrap(gated)
	if err != nil {
		t.Fatal(err)
	}
	q := spreadQueries(res.Tree.Domain(), 1)[0]
	withVerify := backend.WithVerify(res.Public)
	ctx := context.Background()

	const K = 8 // waiters joining the leader's flight

	type result struct {
		ans backend.Answer
		err error
	}
	leaderDone := make(chan result, 1)
	go func() {
		ans, err := c.Query(ctx, q, withVerify)
		leaderDone <- result{ans, err}
	}()
	waitFor(t, "the leader's walk to start", func() bool { return gated.walks.Load() == 1 })

	// All K waiters join while the walk is provably still at the gate.
	results := make(chan result, K)
	cancelCtx, cancel := context.WithCancel(ctx)
	for i := 0; i < K; i++ {
		wctx := ctx
		if i == 0 {
			wctx = cancelCtx
		}
		go func() {
			ans, err := c.Query(wctx, q, withVerify)
			results <- result{ans, err}
		}()
	}
	waitFor(t, "all waiters to collapse onto the flight", func() bool {
		return c.CacheStats().Collapses == K
	})

	// Cancel one waiter mid-flight: it must leave with its own ctx
	// error while the flight keeps running for everyone else.
	cancel()
	canceled := <-results
	if !errors.Is(canceled.err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v", canceled.err)
	}
	if gated.walks.Load() != 1 {
		t.Fatalf("cancellation spawned extra walks: %d", gated.walks.Load())
	}

	close(gated.gate)
	lead := <-leaderDone
	if lead.err != nil || lead.ans.Records == nil {
		t.Fatalf("leader: err %v, verified %v", lead.err, lead.ans.Records != nil)
	}
	for i := 0; i < K-1; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("waiter %d: %v", i, r.err)
		}
		if r.ans.Records == nil {
			t.Fatalf("waiter %d answer not verified", i)
		}
		if string(r.ans.Raw) != string(lead.ans.Raw) {
			t.Fatalf("waiter %d served different bytes than the leader", i)
		}
	}

	if w := gated.walks.Load(); w != 1 {
		t.Fatalf("K+1 concurrent identical queries cost %d walks, want 1", w)
	}
	st := c.CacheStats()
	if st.Misses != 1 || st.Collapses != K || st.Hits != 0 {
		t.Fatalf("stats after collapse: %+v", st)
	}

	// The settled flight is now a plain cache hit.
	if _, err := c.Query(ctx, q, withVerify); err != nil {
		t.Fatal(err)
	}
	if st = c.CacheStats(); st.Hits != 1 {
		t.Fatalf("post-flight query missed: %+v", st)
	}
	if w := gated.walks.Load(); w != 1 {
		t.Fatalf("post-flight hit walked again: %d", w)
	}
}

// TestCanceledLeaderDoesNotPoison pins the leader-side half of the
// cancellation contract: when the flight's leader is canceled, a waiter
// whose context is live retries — becoming the new leader — instead of
// inheriting the foreign cancellation. The leader is a single query, or
// a batch whose index 0 is cached and whose miss is canceled mid-walk:
// the batch still serves its hit, and the flight it led is released.
func TestCanceledLeaderDoesNotPoison(t *testing.T) {
	res := outsrc(t, 80, verify.OneSignature)
	local, err := backend.NewLocal(res.Tree)
	if err != nil {
		t.Fatal(err)
	}
	qs := spreadQueries(res.Tree.Domain(), 2)
	for _, tc := range []struct {
		name   string
		cached []query.Query // answered, so cached, before the leader starts
		lead   []query.Query // the leader's batch; its last query misses
	}{
		{"single query", nil, qs[1:]},
		{"batch with a cached index 0", qs[:1], qs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gated := newGated(local)
			c, err := cache.Wrap(gated)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for _, q := range tc.cached {
				warmed := make(chan error, 1)
				go func() {
					_, err := c.Query(ctx, q)
					warmed <- err
				}()
				gated.gate <- struct{}{}
				if err := <-warmed; err != nil {
					t.Fatal(err)
				}
			}
			walked := gated.walks.Load()
			miss := tc.lead[len(tc.lead)-1]

			leaderCtx, cancelLeader := context.WithCancel(ctx)
			leaderDone := make(chan error, 1)
			go func() {
				_, errs := c.QueryBatch(leaderCtx, tc.lead)
				for i, err := range errs[:len(errs)-1] {
					if err != nil {
						t.Errorf("cached index %d of the canceled batch: %v", i, err)
					}
				}
				leaderDone <- errs[len(errs)-1]
			}()
			waitFor(t, "the leader's walk to start", func() bool { return gated.walks.Load() == walked+1 })

			waiterDone := make(chan error, 1)
			go func() {
				_, err := c.Query(ctx, miss)
				waiterDone <- err
			}()
			waitFor(t, "the waiter to collapse onto the flight", func() bool {
				return c.CacheStats().Collapses >= 1
			})

			cancelLeader()
			if err := <-leaderDone; !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled leader returned %v", err)
			}
			// The waiter retries and leads its own walk; release it.
			waitFor(t, "the waiter to re-lead", func() bool { return gated.walks.Load() == walked+2 })
			close(gated.gate)
			if err := <-waiterDone; err != nil {
				t.Fatalf("waiter inherited the leader's cancellation: %v", err)
			}
		})
	}
}
