package front_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/cache"
	"aqverify/internal/front"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/transport"
)

// mutated applies one in-place update to the product, producing the
// next epoch's bundle and shard trees.
func mutated(t *testing.T, prev *build.Result, i int) *build.Result {
	t.Helper()
	rows := prev.Set.Trees[0].Table().Records
	upd := rows[i%len(rows)]
	upd.Attrs = append([]float64(nil), upd.Attrs...)
	upd.Attrs[0] += 0.01
	next, err := build.Apply(context.Background(), prev, build.Update(i%len(rows), upd))
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// TestRollingSwapUnderReplicas pins the satellite: one replica of shard
// 0 swaps to epoch 2 while its sibling still serves epoch 1. Through
// the full vqfront topology, an end client pinned at epoch 1 keeps
// verifying answers that route to the lagging sibling, sees the typed
// *backend.EpochError with correct epoch and shard attribution when the
// swapped replica answers, and the front surfaces the divergence as a
// nonzero epoch-lag gauge — until the fleet converges, the client
// re-pins, and the lag gauges return to zero.
func TestRollingSwapUnderReplicas(t *testing.T) {
	fl := newFleet(t, 2, 2, nil)
	f, params, err := front.DialFront(fl.groups, nil, front.Options{ProbeEvery: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := transport.NewBackendHandler(f, params)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	r, err := transport.DialRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != 1 {
		t.Fatalf("end client pinned epoch %d, want 1", r.Epoch())
	}

	ctx := context.Background()
	qs := fleetQueries(fl.dom, 12)
	verify1 := backend.WithVerify(fl.res.Public)
	answers, errs := r.QueryBatch(ctx, qs, verify1)
	for i := range qs {
		if errs[i] != nil || answers[i].Epoch != 1 {
			t.Fatalf("pre-swap query %d: epoch %d err %v", i, answers[i].Epoch, errs[i])
		}
	}

	// Roll the first replica of shard 0 to epoch 2; its sibling and all
	// of shard 1 stay at epoch 1.
	res2 := mutated(t, fl.res, 3)
	if err := fl.srvs[0][0].Swap(local(t, res2.Set.Trees[0])); err != nil {
		t.Fatal(err)
	}

	// A query owned by shard 0 now races the rollout — driven over the
	// batch exchange, whose frames carry per-item epoch stamps. The
	// lagging sibling still verifies at the pin; the swapped replica
	// surfaces as the typed staleness error with epoch and shard
	// attribution — never a misleading verification failure.
	plan := f.Plan()
	b0 := plan.Boxes[0]
	q0 := query.NewTopK(geometry.Point{(b0.Lo[plan.Axis] + b0.Hi[plan.Axis]) / 2}, 2)
	sawFresh, sawStale := false, false
	for tries := 0; tries < 64 && !(sawFresh && sawStale); tries++ {
		bans, berrs := r.QueryBatch(ctx, []query.Query{q0}, verify1)
		if err := berrs[0]; err != nil {
			var ee *backend.EpochError
			if !errors.As(err, &ee) {
				t.Fatalf("mid-rollout error is not an EpochError: %v", err)
			}
			if ee.Want != 1 || ee.Got != 2 || ee.Shard != 0 {
				t.Fatalf("EpochError{Want:%d Got:%d Shard:%d}, want {1 2 0}", ee.Want, ee.Got, ee.Shard)
			}
			sawStale = true
			continue
		}
		if bans[0].Epoch != 1 {
			t.Fatalf("verified mid-rollout answer stamped epoch %d, want 1", bans[0].Epoch)
		}
		sawFresh = true
	}
	if !sawFresh || !sawStale {
		t.Fatalf("64 tries never hit both replicas: fresh=%v stale=%v", sawFresh, sawStale)
	}

	// The divergence is on the gauges: fleet epoch 2, the lagging
	// sibling one epoch behind.
	snap := f.Snapshot()
	if got := f.Epoch(); got != 2 {
		t.Fatalf("fleet epoch %d mid-rollout, want 2", got)
	}
	lags := map[uint64]int{}
	for _, rep := range snap.Shards[0].Replicas {
		lags[rep.EpochLag]++
	}
	if lags[0] != 1 || lags[1] != 1 {
		t.Errorf("shard 0 replica lags = %v, want one at 0 and one at 1", lags)
	}

	// Converge: swap the rest of the fleet, re-pin the client, and both
	// the answers and the lag gauges settle at epoch 2.
	if err := fl.srvs[0][1].Swap(local(t, res2.Set.Trees[0])); err != nil {
		t.Fatal(err)
	}
	for _, srv := range fl.srvs[1] {
		if err := srv.Swap(local(t, res2.Set.Trees[1])); err != nil {
			t.Fatal(err)
		}
	}
	if e, err := r.Client().Refresh(ctx); err != nil || e != 2 {
		t.Fatalf("refresh after the rollout: epoch %d, err %v", e, err)
	}
	verify2 := backend.WithVerify(res2.Public)
	converged := false
	for round := 0; round < 32 && !converged; round++ {
		answers, errs = r.QueryBatch(ctx, qs, verify2)
		for i := range qs {
			if errs[i] != nil || answers[i].Epoch != 2 {
				t.Fatalf("post-rollout query %d: epoch %d err %v", i, answers[i].Epoch, errs[i])
			}
		}
		converged = true
		for _, sh := range f.Snapshot().Shards {
			for _, rep := range sh.Replicas {
				if rep.EpochLag != 0 {
					converged = false
				}
			}
		}
	}
	if !converged {
		t.Errorf("epoch-lag gauges never settled to zero after the full rollout: %+v", f.Snapshot().Shards)
	}
}

// TestSwapsCountedOnEveryHost: a fleet rolled to the next epoch shows
// on the front's /stats as epoch 2 and one swap, whether or not the
// front serves through the cache tier — swaps is the handler's count of
// serving-epoch advances it has observed, not a property of whichever
// backend happens to be outermost.
func TestSwapsCountedOnEveryHost(t *testing.T) {
	fl := newFleet(t, 2, 1, nil)
	var urls []string
	for _, cached := range []bool{false, true} {
		f, params, err := front.DialFront(fl.groups, nil, front.Options{ProbeEvery: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		var b backend.Backend = f
		if cached {
			if b, err = cache.Wrap(f); err != nil {
				t.Fatal(err)
			}
		}
		h, err := transport.NewBackendHandler(b, params)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	type stats struct {
		Epoch uint64 `json:"epoch"`
		Swaps int    `json:"swaps"`
	}
	read := func(url string) (st stats) {
		t.Helper()
		resp, err := http.Get(url + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, url := range urls {
		if st := read(url); st != (stats{Epoch: 1}) {
			t.Fatalf("before the rollout: %+v, want epoch 1 and no swaps", st)
		}
	}

	res2 := mutated(t, fl.res, 3)
	for si, reps := range fl.srvs {
		if err := reps[0].Swap(local(t, res2.Set.Trees[si])); err != nil {
			t.Fatal(err)
		}
	}
	for i, url := range urls {
		st := read(url)
		for deadline := time.Now().Add(5 * time.Second); st.Epoch != 2 && time.Now().Before(deadline); st = read(url) {
			time.Sleep(5 * time.Millisecond) // the prober re-reads /params every 5ms
		}
		// Traffic at the new epoch moves the cache's pin; the advance is
		// still one swap, counted once.
		r, err := transport.DialRemote(url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Query(context.Background(), fleetQueries(fl.dom, 1)[0], backend.WithVerify(res2.Public)); err != nil {
			t.Fatal(err)
		}
		if st = read(url); st != (stats{Epoch: 2, Swaps: 1}) {
			t.Errorf("host %d (cached=%v) after the rollout: %+v, want epoch 2 and one swap", i, i == 1, st)
		}
	}
}
