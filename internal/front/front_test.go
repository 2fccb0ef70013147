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
// the held duration; control routes (/params) stay fast. served, when
// non-nil, counts the query exchanges the replica took.
type delayQueries struct {
	h       http.Handler
	delayNS *atomic.Int64
	served  *atomic.Int64
}

func (d delayQueries) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/query") {
		if d.served != nil {
			d.served.Add(1)
		}
		if v := time.Duration(d.delayNS.Load()); v > 0 {
			time.Sleep(v)
		}
	}
	d.h.ServeHTTP(w, r)
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
