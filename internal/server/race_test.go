package server_test

import (
	"context"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"aqverify/internal/geometry"
	"aqverify/internal/query"
)

// TestStatsRaceUnderBatch is the regression test for the serving-tally
// audit, on the handler that now owns the tally: outcome counts are
// bumped by every concurrent exchange, so interleaving batches, single
// queries (batches of one) with /stats and /metrics readers — and
// a Swap landing mid-traffic, which both readers observe — must be clean
// under -race. The plain counts — answered, refused, per-shard — are
// atomics and only the multi-field metrics counter sits under the mutex;
// this test pins both the absence of races and the final tallies.
func TestStatsRaceUnderBatch(t *testing.T) {
	srv, set, dom := shardedFixture(t, 4)
	h := host(t, srv, set.Public())
	epoch2 := sharded(t, shardedAtEpoch(t, 4, 2))
	rng := rand.New(rand.NewSource(7))
	qs := make([]query.Query, 0, 24)
	for i := 0; i < 20; i++ {
		x := dom.Lo[0] + rng.Float64()*(dom.Hi[0]-dom.Lo[0])
		qs = append(qs, query.NewTopK(geometry.Point{x}, 1+rng.Intn(4)))
	}
	for _, c := range set.Plan.Cuts {
		qs = append(qs, query.NewTopK(geometry.Point{c}, 2))
	}
	qs = append(qs, query.NewTopK(geometry.Point{dom.Hi[0] + 3}, 1)) // unroutable

	const rounds = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	// Batch writers, one extra single-query writer, and readers hammering
	// every stats surface while the batches run.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				h.QueryBatch(context.Background(), qs)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for r := 0; r < rounds; r++ {
			for _, q := range qs {
				h.Query(context.Background(), q) //nolint:errcheck // outcome tallied below
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for r := 0; r < rounds; r++ {
			h.stats(t)
			if resp, err := http.Get(h.url + "/metrics"); err == nil {
				resp.Body.Close()
			}
			if r == rounds/2 {
				if err := srv.Swap(epoch2); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	close(start)
	wg.Wait()

	routable := len(qs) - 1
	writers := 3 + 1 // batch goroutines + Query loop
	st := h.stats(t)
	if want := writers * rounds * routable; st.Queries != want {
		t.Errorf("answered = %d, want %d", st.Queries, want)
	}
	if want := writers * rounds; st.Errors != want {
		t.Errorf("errors = %d, want %d", st.Errors, want)
	}
	if st.Epoch != 2 || st.Swaps != 1 {
		t.Errorf("epoch %d swaps %d after the mid-traffic swap, want 2, 1", st.Epoch, st.Swaps)
	}
	sum := 0
	for _, s := range st.PerShard {
		if s.Epoch != 2 || s.Lag != 0 {
			t.Errorf("shard at epoch %d lag %d after the swap, want 2, 0", s.Epoch, s.Lag)
		}
		sum += s.Queries
	}
	if want := writers * rounds * routable; sum != want {
		t.Errorf("per-shard tallies sum to %d, want %d", sum, want)
	}
}
