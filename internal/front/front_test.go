package front_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/core"
	"aqverify/internal/front"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/server"
	"aqverify/internal/sig"
	"aqverify/internal/transport"
	"aqverify/internal/workload"
)

// fleet is the shared test topology: one outsourced sharded database
// served by shards x replicas loopback HTTP servers, each replica its
// own server.Server (so rolling-swap tests can diverge them) over a
// shared shard tree.
type fleet struct {
	res    *build.Result
	dom    geometry.Box
	srvs   [][]*server.Server // [shard][replica], for Swap
	groups [][]string         // [shard][replica] base URLs
}

// newFleet builds and serves the topology. wrap, when non-nil, may
// replace replica (si, ri)'s handler — the hook fault-injection tests
// use to slow or fail one replica.
func newFleet(t *testing.T, shards, replicas int, wrap func(si, ri int, h http.Handler) http.Handler) *fleet {
	t.Helper()
	ctx := context.Background()
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{Rand: sig.DeterministicRand(7)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := build.Outsource(ctx, build.Spec{
		Table: tbl, Template: funcs.AffineLine(0, 1), Domain: dom, Signer: signer,
	}, build.WithShuffle(7), build.WithShards(shards, 0))
	if err != nil {
		t.Fatal(err)
	}
	fl := &fleet{res: res, dom: dom}
	for si, tree := range res.Set.Trees {
		var ss []*server.Server
		var urls []string
		for ri := 0; ri < replicas; ri++ {
			srv := newServer(t, local(t, tree))
			hd, err := transport.NewIFMHHandler(srv, tree.Public())
			if err != nil {
				t.Fatal(err)
			}
			var h http.Handler = hd
			if wrap != nil {
				h = wrap(si, ri, h)
			}
			ts := httptest.NewServer(h)
			t.Cleanup(ts.Close)
			ss = append(ss, srv)
			urls = append(urls, ts.URL)
		}
		fl.srvs = append(fl.srvs, ss)
		fl.groups = append(fl.groups, urls)
	}
	return fl
}

// local and newServer host a tree the way vqserve does: a backend.Local
// behind a server.Server.
func local(t *testing.T, tree *core.Tree) *backend.Local {
	t.Helper()
	b, err := backend.NewLocal(tree)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newServer(t *testing.T, b server.Backend) *server.Server {
	t.Helper()
	srv, err := server.New(b)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// fleetQueries sweeps top-k queries across the domain so both shards
// see traffic.
func fleetQueries(dom geometry.Box, n int) []query.Query {
	qs := make([]query.Query, 0, n)
	for i := 0; i < n; i++ {
		x := dom.Lo[0] + (dom.Hi[0]-dom.Lo[0])*float64(i+1)/float64(n+1)
		qs = append(qs, query.NewTopK(geometry.Point{x}, 1+i%3))
	}
	return qs
}

// delayQueries injects a latency fault: every query route sleeps for
// the held duration; control routes (/params) stay fast.
type delayQueries struct {
	h       http.Handler
	delayNS *atomic.Int64
}

func (d delayQueries) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if v := time.Duration(d.delayNS.Load()); v > 0 && strings.HasPrefix(r.URL.Path, "/query") {
		time.Sleep(v)
	}
	d.h.ServeHTTP(w, r)
}

// TestHedgeRescuesSlowReplica pins the tentpole's tail collapse: with
// one replica of shard 0 injected 250ms slow and hedging on, every
// query — including those whose P2C pick landed on the slow replica —
// completes well under the injected delay because the hedge re-issues
// to the healthy sibling, and every answer still verifies.
func TestHedgeRescuesSlowReplica(t *testing.T) {
	const slow = 250 * time.Millisecond
	var delay atomic.Int64
	fl := newFleet(t, 2, 2, func(si, ri int, h http.Handler) http.Handler {
		if si == 0 && ri == 1 {
			return delayQueries{h, &delay}
		}
		return h
	})
	f, _, err := front.DialFront(fl.groups, nil, front.Options{
		HedgeFraction: 1,
		HedgeAfterMin: 2 * time.Millisecond,
		ProbeEvery:    -1,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	delay.Store(int64(slow))

	ctx := context.Background()
	withVerify := backend.WithVerify(fl.res.Public)
	for i, q := range fleetQueries(fl.dom, 30) {
		t0 := time.Now()
		if _, err := f.Query(ctx, q, withVerify); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if d := time.Since(t0); d > slow/2 {
			t.Errorf("query %d took %v; the hedge should have rescued it well under %v", i, d, slow/2)
		}
	}
	snap := f.Snapshot()
	if snap.Hedges() == 0 || snap.HedgeWins() == 0 {
		t.Errorf("hedges=%d wins=%d after 30 queries against a slow replica; want both > 0",
			snap.Hedges(), snap.HedgeWins())
	}
}

// TestHedgeBudget pins the hedge cap: with a fraction too small for the
// request count, deadlines fire but launches are suppressed, so a
// degraded fleet is never double-loaded past the budget. With no budget
// at all an exchange cannot hedge, so it arms no deadline and there is
// nothing to suppress either.
func TestHedgeBudget(t *testing.T) {
	const slow = 30 * time.Millisecond
	for _, tc := range []struct {
		name           string
		fraction       float64
		wantSuppressed bool
	}{
		{"budget too small", 0.01, true}, // needs 100 requests before the first hedge
		{"no budget", 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var delay atomic.Int64
			fl := newFleet(t, 2, 2, func(si, ri int, h http.Handler) http.Handler {
				if si == 0 && ri == 1 {
					return delayQueries{h, &delay}
				}
				return h
			})
			f, _, err := front.DialFront(fl.groups, nil, front.Options{
				HedgeFraction: tc.fraction,
				HedgeAfterMin: 2 * time.Millisecond,
				ProbeEvery:    -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			delay.Store(int64(slow))

			ctx := context.Background()
			withVerify := backend.WithVerify(fl.res.Public)
			for i, q := range fleetQueries(fl.dom, 16) {
				if _, err := f.Query(ctx, q, withVerify); err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
			}
			snap := f.Snapshot()
			if got := snap.Hedges(); got != 0 {
				t.Errorf("issued %d hedges under a %v budget with 16 requests; want 0", got, tc.fraction)
			}
			var suppressed int64
			for _, sh := range snap.Shards {
				suppressed += sh.HedgesSuppressed
			}
			if (suppressed > 0) != tc.wantSuppressed {
				t.Errorf("%d suppressed hedges; want some: %v (the slow replica's deadlines fire only when a budget could act on them)",
					suppressed, tc.wantSuppressed)
			}
		})
	}
}

// TestDialSurfacesFailingURL pins the satellite: both dial paths name
// the URL that failed, typed as *transport.RemoteError, so a fleet
// operator knows which replica of which group to fix.
func TestDialSurfacesFailingURL(t *testing.T) {
	fl := newFleet(t, 2, 1, nil)
	const dead = "http://127.0.0.1:1"

	_, _, err := front.DialFront([][]string{fl.groups[0], {dead}}, nil, front.Options{ProbeEvery: -1})
	var re *transport.RemoteError
	if err == nil || !errors.As(err, &re) || re.URL != dead {
		t.Errorf("DialFront with a dead replica: err = %v; want *transport.RemoteError for %s", err, dead)
	}
	if err != nil && !strings.Contains(err.Error(), dead) {
		t.Errorf("DialFront error %q does not name the failing URL", err)
	}

	re = nil
	_, _, err = transport.DialFanout([]string{fl.groups[0][0], dead}, nil)
	if err == nil || !errors.As(err, &re) || re.URL != dead {
		t.Errorf("DialFanout with a dead backend: err = %v; want *transport.RemoteError for %s", err, dead)
	}
}
