package transport

import (
	"context"
	"fmt"
	"iter"
	"net/http/httptest"
	"reflect"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/cache"
	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/shard"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
)

// statsBody is GET /stats as a client decodes it.
type statsBody struct {
	Backend      string       `json:"backend"`
	Queries      int          `json:"queries"`
	Errors       int          `json:"errors"`
	NodesVisited uint64       `json:"nodesVisited"`
	Bytes        uint64       `json:"bytes"`
	Epoch        uint64       `json:"epoch"`
	Swaps        int          `json:"swaps"`
	Shards       int          `json:"shards"`
	PerShard     []ShardStat  `json:"perShard"`
	Cache        *cache.Stats `json:"cache"`
}

func getStats(t *testing.T, url string) (st statsBody) {
	t.Helper()
	getJSON(t, url+"/stats", &st)
	return st
}

// serveBackend puts b behind a handler on a loopback listener.
func serveBackend(t *testing.T, b backend.Backend, p Params) string {
	t.Helper()
	h, err := NewBackendHandler(b, p)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

func wrapped(t *testing.T, b backend.Backend) *cache.Cache {
	t.Helper()
	c, err := cache.Wrap(b)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// routes drive one batch through each of a dialed session's three entry
// points — one query at a time (a batch of one each), the buffered batch
// and the stream — discarding the outcomes: the battery reads them off
// /stats.
var routes = []struct {
	name  string
	drive func(r *Remote, qs []query.Query)
}{
	{"Query", func(r *Remote, qs []query.Query) {
		for _, q := range qs {
			r.Query(context.Background(), q) //nolint:errcheck // tallied server-side
		}
	}},
	{"/query/batch", func(r *Remote, qs []query.Query) { r.QueryBatch(context.Background(), qs) }},
	{"/query/stream", func(r *Remote, qs []query.Query) {
		for range r.QueryStream(context.Background(), qs) {
		}
	}},
}

// TestStatsIdentity is the one-tally battery: the same mixed batch —
// all four query kinds, one on a shard cut, one no shard owns, one
// refused — driven one query at a time, as a batch and as a stream through
// every host shape must read the same on /stats, because exactly one
// thing counts served traffic (the handler) and it counts from what
// every backend hands back. queries and errors agree across all five
// hosts; perShard across the four sharded ones (a single tree reports
// none); bytes across all five too — a multi-signature answer is as
// long from a shard's tree as from the whole one, and a cache hit serves
// the same bytes — and nodesVisited across the uncached hosts of the
// shard set, where the fanout's walk happens in its two shard processes
// and is the sum of their /stats (a relay walks nothing itself; the
// single tree is deeper and walks more).
func TestStatsIdentity(t *testing.T) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{Rand: sig.DeterministicRand(7)})
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{
		Mode: verify.MultiSignature, Signer: signer, Domain: dom,
		Template: funcs.AffineLine(0, 1), Seed: 1,
	}
	plan, err := shard.NewPlan(dom, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	set, err := shard.Build(tbl, p, plan)
	if err != nil {
		t.Fatal(err)
	}
	single, err := core.Build(tbl, p)
	if err != nil {
		t.Fatal(err)
	}
	pub := set.Public()

	// The batch: 4 kinds x 5 inputs, the cut, an input no shard owns and
	// a k = 0 the backends refuse.
	var qs []query.Query
	for i := range 5 {
		x := geometry.Point{dom.Lo[0] + (dom.Hi[0]-dom.Lo[0])*float64(2*i+1)/12}
		qs = append(qs, query.NewTopK(x, 1+i), query.NewBottomK(x, 1+i), query.NewRange(x, -2, 2), query.NewKNN(x, 1+i, 0.5))
	}
	qs = append(qs,
		query.NewTopK(geometry.Point{plan.Cuts[0]}, 3),
		query.NewTopK(geometry.Point{dom.Hi[0] + 5}, 1),
		query.NewTopK(geometry.Point{dom.Lo[0]}, 0))
	const refused = 2
	answered := len(qs) - refused

	sharded, err := backend.NewSharded(set)
	if err != nil {
		t.Fatal(err)
	}

	type host struct {
		name   string
		url    string
		shards []string // the fanout's shard processes, whose walks are its nodesVisited
	}
	var hosts []host
	{
		srv := newServer(t, local(t, single))
		hp, err := IFMHParams(srv, pub)
		if err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, host{name: "Server{Local}", url: serveBackend(t, srv, hp)})
	}
	for _, cached := range []bool{false, true} {
		srv := newServer(t, sharded)
		hp, err := IFMHParams(srv, pub)
		if err != nil {
			t.Fatal(err)
		}
		name, b := "Server{Sharded}", backend.Backend(srv)
		if cached {
			name, b = "cache.Wrap(Server)", wrapped(t, srv)
		}
		hosts = append(hosts, host{name: name, url: serveBackend(t, b, hp)})
	}
	for _, cached := range []bool{false, true} {
		urls := make([]string, len(set.Trees))
		for i, tree := range set.Trees {
			urls[i] = startShardProcess(t, tree).URL
		}
		f, fp, err := DialFanout(urls, nil)
		if err != nil {
			t.Fatal(err)
		}
		name, b := "Fanout", backend.Backend(f)
		if cached {
			name, b = "cache.Wrap(Fanout)", wrapped(t, f)
		}
		hosts = append(hosts, host{name: name, url: serveBackend(t, b, fp), shards: urls})
	}

	// got[route][host] is /stats after that route's pass; the passes
	// accumulate, so the cached hosts serve passes two and three from
	// memory (refusals are never cached and walk again).
	got := make([][]statsBody, len(routes))
	walked := make([][]uint64, len(routes)) // nodesVisited where the walk happened
	for _, h := range hosts {
		r, err := DialRemote(h.url, nil)
		if err != nil {
			t.Fatal(err)
		}
		for ri, route := range routes {
			route.drive(r, qs)
			st := getStats(t, h.url)
			nodes := st.NodesVisited
			for _, u := range h.shards {
				nodes += getStats(t, u).NodesVisited
			}
			got[ri], walked[ri] = append(got[ri], st), append(walked[ri], nodes)
		}
	}

	for ri, route := range routes {
		pass := ri + 1
		ref := got[ri][1] // Server{Sharded}: the in-process sharded host
		if ref.Queries != pass*answered || ref.Errors != pass*refused {
			t.Fatalf("%s: Server{Sharded} reports queries %d errors %d after pass %d, want %d, %d",
				route.name, ref.Queries, ref.Errors, pass, pass*answered, pass*refused)
		}
		perShard := 0
		for _, s := range ref.PerShard {
			perShard += s.Queries + s.Errors
		}
		if perShard != pass*answered {
			t.Errorf("%s: per-shard tallies sum to %d, want the %d answered (the refusals never routed)", route.name, perShard, pass*answered)
		}
		for hi, h := range hosts {
			st := got[ri][hi]
			if st.Queries != ref.Queries || st.Errors != ref.Errors {
				t.Errorf("%s %s: queries %d errors %d, Server{Sharded} %d, %d", route.name, h.name, st.Queries, st.Errors, ref.Queries, ref.Errors)
			}
			if st.Epoch != 1 || st.Swaps != 0 {
				t.Errorf("%s %s: epoch %d swaps %d, want 1, 0", route.name, h.name, st.Epoch, st.Swaps)
			}
			if st.Bytes != ref.Bytes {
				t.Errorf("%s %s: bytes %d, Server{Sharded} %d", route.name, h.name, st.Bytes, ref.Bytes)
			}
			if hi == 0 {
				if st.PerShard != nil || st.Shards != 0 {
					t.Errorf("%s %s: a single tree reports per-shard tallies %+v", route.name, h.name, st.PerShard)
				}
				continue // one deeper tree, not two shallower ones: its walk is its own
			}
			if !reflect.DeepEqual(st.PerShard, ref.PerShard) || st.Shards != 2 {
				t.Errorf("%s %s: perShard %+v, Server{Sharded} %+v", route.name, h.name, st.PerShard, ref.PerShard)
			}
			if cachedHost := st.Cache != nil; cachedHost {
				if want := int64((pass - 1) * answered); st.Cache.Hits != want || st.Cache.Misses != int64(answered+pass*refused) {
					t.Errorf("%s %s: cache %+v, want %d hits and %d misses", route.name, h.name, *st.Cache, want, answered+pass*refused)
				}
			} else if walked[ri][hi] != ref.NodesVisited {
				t.Errorf("%s %s: walked %d nodes, Server{Sharded} %d", route.name, h.name, walked[ri][hi], ref.NodesVisited)
			}
		}
		// One tree, three entry points: the same walk each pass.
		if st := got[ri][0]; st.NodesVisited != uint64(pass)*got[0][0].NodesVisited || st.Bytes != uint64(pass)*got[0][0].Bytes {
			t.Errorf("%s Server{Local}: nodes %d bytes %d after pass %d, pass one walked %d and served %d",
				route.name, st.NodesVisited, st.Bytes, pass, got[0][0].NodesVisited, got[0][0].Bytes)
		}
	}
}

// walkThenRefuse is a two-shard backend whose refusals cost something,
// which the real ones' never do (validation, the domain check and
// routing all precede the walk): K = 0 never routes, K = 1 is refused
// by shard 1 five nodes into its walk, anything else is answered by
// shard 0 in eleven nodes and two bytes.
type walkThenRefuse struct{}

func (walkThenRefuse) process(q query.Query, ctr *metrics.Counter) (int, uint64, []byte, error) {
	switch q.K {
	case 0:
		return wire.ShardNone, 0, nil, fmt.Errorf("no shard owns k = 0")
	case 1:
		ctr.AddNodes(5)
		return 1, 1, nil, fmt.Errorf("shard 1 gave up")
	}
	ctr.AddNodes(11)
	ctr.AddBytes(2)
	return 0, 1, []byte{0xA1, byte(q.K)}, nil
}

func (walkThenRefuse) Name() string     { return "ifmh-multi" }
func (walkThenRefuse) Epoch() uint64    { return 1 }
func (walkThenRefuse) Epochs() []uint64 { return []uint64{1, 1} }

func (b walkThenRefuse) Query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	return backend.One(ctx, b, q, opts...)
}

func (b walkThenRefuse) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	return backend.DriveBatch(ctx, b.process, qs, opts...)
}

func (b walkThenRefuse) QueryStream(ctx context.Context, qs []query.Query, opts ...backend.Option) iter.Seq2[int, backend.BatchResult] {
	return backend.DriveStream(ctx, b.process, qs, opts...)
}

// TestRefusedCostRule pins the tally's one rule for a failed query's
// cost on all three entry points: the totals are the exchange's counter,
// whole — the refused item's partial walk is in, the unroutable one had
// none — while queries counts the answered item only, and the refusal
// keeps its shard attribution.
func TestRefusedCostRule(t *testing.T) {
	_, pub, _ := fixtures(t)
	url := serveBackend(t, walkThenRefuse{}, gateParams(t, pub))
	r, err := DialRemote(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := geometry.Point{0}
	qs := []query.Query{query.NewTopK(x, 0), query.NewTopK(x, 1), query.NewTopK(x, 2)}
	for ri, route := range routes {
		route.drive(r, qs)
		n := ri + 1
		want := statsBody{
			Backend: "ifmh-multi", Queries: n, Errors: 2 * n, NodesVisited: uint64(16 * n), Bytes: uint64(2 * n),
			Epoch: 1, Shards: 2, PerShard: []ShardStat{{Queries: n, Epoch: 1}, {Errors: n, Epoch: 1}},
		}
		if got := getStats(t, url); !reflect.DeepEqual(got, want) {
			t.Errorf("after %s:\n got %+v\nwant %+v", route.name, got, want)
		}
	}
}
