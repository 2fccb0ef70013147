package cache_test

import (
	"context"
	"errors"
	"iter"
	"sync/atomic"
	"testing"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/cache"
	"aqverify/internal/core"
	"aqverify/internal/query"
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

func (b *gatedBackend) QueryStream(ctx context.Context, qs []query.Query, opts ...backend.Option) iter.Seq2[int, backend.BatchResult] {
	return func(yield func(int, backend.BatchResult) bool) {
		for i, q := range qs {
			ans, err := b.Query(ctx, q, opts...)
			if !yield(i, backend.BatchResult{Answer: ans, Err: err}) {
				return
			}
		}
	}
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
	res := outsrc(t, 80, core.OneSignature)
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
	verify := backend.WithVerify(res.Public)
	ctx := context.Background()

	const K = 8 // waiters joining the leader's flight

	type result struct {
		ans backend.Answer
		err error
	}
	leaderDone := make(chan result, 1)
	go func() {
		ans, err := c.Query(ctx, q, verify)
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
			ans, err := c.Query(wctx, q, verify)
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
	if _, err := c.Query(ctx, q, verify); err != nil {
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
// inheriting the foreign cancellation.
func TestCanceledLeaderDoesNotPoison(t *testing.T) {
	res := outsrc(t, 80, core.OneSignature)
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
	ctx := context.Background()

	leaderCtx, cancelLeader := context.WithCancel(ctx)
	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.Query(leaderCtx, q)
		leaderDone <- err
	}()
	waitFor(t, "the leader's walk to start", func() bool { return gated.walks.Load() == 1 })

	waiterDone := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, q)
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
	waitFor(t, "the waiter to re-lead", func() bool { return gated.walks.Load() == 2 })
	close(gated.gate)
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter inherited the leader's cancellation: %v", err)
	}
}

// TestStreamBreakReleasesLedFlights: a stream over a hit and a miss
// starts the miss's walk without waiting for the hit to be consumed,
// and a consumer that breaks on the hit strands nothing — the walk is
// canceled, the flight the stream led completes with the cancellation,
// and a foreign waiter collapsed onto it retries and is answered.
func TestStreamBreakReleasesLedFlights(t *testing.T) {
	res := outsrc(t, 80, core.OneSignature)
	local, err := backend.NewLocal(res.Tree)
	if err != nil {
		t.Fatal(err)
	}
	gated := newGated(local)
	c, err := cache.Wrap(gated)
	if err != nil {
		t.Fatal(err)
	}
	qs := spreadQueries(res.Tree.Domain(), 2)
	ctx := context.Background()

	warmed := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, qs[0])
		warmed <- err
	}()
	gated.gate <- struct{}{}
	if err := <-warmed; err != nil {
		t.Fatal(err)
	}

	waiterDone := make(chan error, 1)
	yielded := 0
	for i, r := range c.QueryStream(ctx, qs) {
		yielded++
		if i != 0 || r.Err != nil {
			t.Fatalf("first item is index %d (err %v), want the cached index 0", i, r.Err)
		}
		waitFor(t, "the miss's walk to start while the hit is still being consumed", func() bool {
			return gated.walks.Load() == 2
		})
		go func() {
			_, err := c.Query(ctx, qs[1])
			waiterDone <- err
		}()
		waitFor(t, "the foreign waiter to collapse onto the led flight", func() bool {
			return c.CacheStats().Collapses >= 1
		})
		break
	}
	if yielded != 1 {
		t.Fatalf("stream yielded %d items before the break, want 1", yielded)
	}
	waitFor(t, "the waiter to re-lead the canceled flight", func() bool { return gated.walks.Load() == 3 })
	close(gated.gate)
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter inherited the stream's cancellation: %v", err)
	}
}
