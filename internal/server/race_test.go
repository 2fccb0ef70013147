package server

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
)

// TestStatsRaceUnderBatch is the regression test for the serving-tally
// audit: per-query stats and error counters are updated from every
// concurrent batch worker, so interleaving QueryBatch with the /stats
// readers (Stats, ErrorCount, ShardStats), single-query Query calls and
// a QueryStream must be clean under -race. The audit moved the plain counts — answered,
// refused, per-shard — to atomics and left only the multi-field metrics
// counter under the mutex; this test pins both the absence of races and
// the final tallies.
func TestStatsRaceUnderBatch(t *testing.T) {
	srv, set, dom := shardedFixture(t, 4)
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
				srv.QueryBatch(context.Background(), qs, backend.WithWorkers(4))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for r := 0; r < rounds; r++ {
			for _, q := range qs {
				srv.Query(context.Background(), q) //nolint:errcheck // outcome tallied below
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for r := 0; r < rounds*len(qs); r++ {
			srv.Stats()
			srv.ErrorCount()
			srv.ShardStats()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for r := 0; r < rounds; r++ {
			for range srv.QueryStream(context.Background(), qs) {
			}
		}
	}()
	close(start)
	wg.Wait()

	routable := len(qs) - 1
	writers := 3 + 1 + 1 // batch goroutines + Query loop + QueryStream loop
	_, answered := srv.Stats()
	if want := writers * rounds * routable; answered != want {
		t.Errorf("answered = %d, want %d", answered, want)
	}
	if want := writers * rounds; srv.ErrorCount() != want {
		t.Errorf("ErrorCount = %d, want %d", srv.ErrorCount(), want)
	}
	sum := 0
	for _, s := range srv.ShardStats() {
		sum += s.Queries
	}
	if want := writers * rounds * routable; sum != want {
		t.Errorf("per-shard tallies sum to %d, want %d", sum, want)
	}
}
