package front_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/front"
	"aqverify/internal/transport"
	"aqverify/internal/wire"
)

// failToggle injects a liveness fault: while tripped, every route —
// /params probes included — answers 500.
type failToggle struct {
	h    http.Handler
	down atomic.Bool
}

func (f *failToggle) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		http.Error(w, "injected outage", http.StatusInternalServerError)
		return
	}
	f.h.ServeHTTP(w, r)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEjectionAndReadmission pins the health loop: a replica that
// starts failing is ejected after FailAfter consecutive probe failures
// (queries keep succeeding on its sibling), and once it heals the
// prober re-admits it — with the ejection, re-admission and probe
// failure counters telling the story.
func TestEjectionAndReadmission(t *testing.T) {
	var faulty *failToggle
	fl := newFleet(t, 2, 2, func(si, ri int, h http.Handler) http.Handler {
		if si == 0 && ri == 1 {
			faulty = &failToggle{h: h}
			return faulty
		}
		return h
	})
	f, _, err := front.DialFront(fl.groups, nil, front.Options{
		ProbeEvery:   10 * time.Millisecond,
		ProbeTimeout: time.Second,
		FailAfter:    2,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	replicaDown := func(snap front.Snapshot) *front.ReplicaStat {
		for _, sh := range snap.Shards {
			for i := range sh.Replicas {
				if !sh.Replicas[i].Up {
					return &sh.Replicas[i]
				}
			}
		}
		return nil
	}

	faulty.down.Store(true)
	waitFor(t, 5*time.Second, "the faulty replica's ejection", func() bool {
		snap := f.Snapshot()
		return snap.Ejections() >= 1 && replicaDown(snap) != nil
	})
	if r := replicaDown(f.Snapshot()); r == nil || r.ProbeFails == 0 {
		t.Errorf("ejected replica shows no probe failures: %+v", r)
	}

	// The set keeps serving on the healthy sibling while one is down.
	ctx := context.Background()
	withVerify := backend.WithVerify(fl.res.Public)
	for i, q := range fleetQueries(fl.dom, 8) {
		if _, err := f.Query(ctx, q, withVerify); err != nil {
			t.Fatalf("query %d during the outage: %v", i, err)
		}
	}

	faulty.down.Store(false)
	waitFor(t, 5*time.Second, "the healed replica's re-admission", func() bool {
		snap := f.Snapshot()
		return snap.Readmissions() >= 1 && replicaDown(snap) == nil
	})
}

// TestAdmissionBurst pins admission control end to end: a burst of
// concurrent queries against a MaxInFlight-2 front over slow replicas
// sheds the excess as HTTP 429, the client maps each to ErrOverload,
// and the gate's shed counter agrees exactly with what the clients saw.
func TestAdmissionBurst(t *testing.T) {
	const hold = 100 * time.Millisecond
	var delay atomic.Int64
	fl := newFleet(t, 2, 2, func(si, ri int, h http.Handler) http.Handler {
		return delayQueries{h, &delay}
	})
	f, params, err := front.DialFront(fl.groups, nil, front.Options{MaxInFlight: 2, ProbeEvery: -1})
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
	delay.Store(int64(hold))

	ctx := context.Background()
	qs := fleetQueries(fl.dom, 12)
	withVerify := backend.WithVerify(fl.res.Public)
	var (
		wg     sync.WaitGroup
		shed   atomic.Int64
		failed atomic.Int64
	)
	for i := range qs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := r.Query(ctx, qs[i], withVerify)
			switch {
			case errors.Is(err, front.ErrOverload):
				shed.Add(1)
			case err != nil:
				failed.Add(1)
				t.Errorf("query %d failed with a non-overload error: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatalf("a 12-query burst against an in-flight bound of 2 shed nothing")
	}
	snap := f.Snapshot()
	if snap.Shed != shed.Load() {
		t.Errorf("gate counted %d shed requests but clients saw %d overloads", snap.Shed, shed.Load())
	}
	if snap.InFlight != 0 {
		t.Errorf("in-flight gauge still %d after the burst drained", snap.InFlight)
	}

	// The raw statuses, pinned: with the gate held full, both the batch
	// and the stream route answer 429 before committing to a response
	// body — a shed stream never starts.
	release1, err := f.Admit()
	if err != nil {
		t.Fatal(err)
	}
	release2, err := f.Admit()
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range []string{"/query/batch", "/query/stream"} {
		resp, err := http.Post(ts.URL+route, "application/octet-stream", bytes.NewReader(wire.EncodeQueryBatch(qs[:1])))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("POST %s with the gate full: status %d, want 429", route, resp.StatusCode)
		}
	}
	release1()
	release2()
	if _, err := r.Query(ctx, qs[0], withVerify); err != nil {
		t.Errorf("query after releasing the gate: %v", err)
	}
}
