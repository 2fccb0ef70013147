package transport

import (
	"context"
	"encoding/base64"
	"errors"
	"io"
	"iter"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aqverify/internal/backend"
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

// routeCounter wraps a handler and counts requests per path, so tests
// can pin which transport a client actually used.
type routeCounter struct {
	h  http.Handler
	mu sync.Mutex
	n  map[string]int
}

func newRouteCounter(h http.Handler) *routeCounter {
	return &routeCounter{h: h, n: map[string]int{}}
}

func (rc *routeCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rc.mu.Lock()
	rc.n[r.URL.Path]++
	rc.mu.Unlock()
	rc.h.ServeHTTP(w, r)
}

func (rc *routeCounter) count(path string) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.n[path]
}

func streamBatch(dom geometry.Box, n int) []query.Query {
	rng := rand.New(rand.NewSource(11))
	qs := make([]query.Query, 0, n)
	for len(qs) < n {
		x := geometry.Point{dom.Lo[0] + rng.Float64()*(dom.Hi[0]-dom.Lo[0])}
		switch len(qs) % 4 {
		case 0:
			qs = append(qs, query.NewTopK(x, 1+rng.Intn(4)))
		case 1:
			qs = append(qs, query.NewRange(x, -2, 2))
		case 2:
			qs = append(qs, query.NewKNN(x, 1+rng.Intn(4), 0))
		default:
			// Refused: outside the owner's domain.
			qs = append(qs, query.NewTopK(geometry.Point{dom.Hi[0] + 5}, 2))
		}
	}
	return qs
}

// collectStream drains a stream into index-parallel slices, checking
// each index arrives exactly once.
func collectStream(t *testing.T, n int, seq iter.Seq2[int, backend.BatchResult]) ([]backend.Answer, []error) {
	t.Helper()
	answers := make([]backend.Answer, n)
	errs := make([]error, n)
	seen := make([]bool, n)
	for i, r := range seq {
		if i < 0 || i >= n {
			t.Fatalf("stream yielded index %d of a %d-batch", i, n)
		}
		if seen[i] {
			t.Fatalf("stream yielded index %d twice", i)
		}
		seen[i] = true
		answers[i], errs[i] = r.Answer, r.Err
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("stream never yielded index %d", i)
		}
	}
	return answers, errs
}

// TestRemoteStreamIdentity pins the wire-streamed results against the
// buffered batch exchange: same bytes, same verified records, same
// refusals — only the arrival order and the transport differ — and the
// caller-side byte accounting matches.
func TestRemoteStreamIdentity(t *testing.T) {
	srv, pub, dom := fixtures(t)
	h, err := NewIFMHHandler(srv, pub)
	if err != nil {
		t.Fatal(err)
	}
	rc := newRouteCounter(h)
	ts := httptest.NewServer(rc)
	defer ts.Close()
	remote, err := DialRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !remote.Client().Params().Stream {
		t.Fatal("handler does not advertise the stream capability")
	}
	qs := streamBatch(dom, 24)
	ctx := context.Background()

	var bctr metrics.Counter
	wantAns, wantErrs := remote.QueryBatch(ctx, qs, backend.WithVerify(pub), backend.WithCounter(&bctr))

	var sctr metrics.Counter
	gotAns, gotErrs := collectStream(t, len(qs),
		remote.QueryStream(ctx, qs, backend.WithVerify(pub), backend.WithCounter(&sctr)))

	// The pooled verification path (workers > 1) must agree item for
	// item and byte for byte, including on this 1-CPU container where
	// the default pool would be serial.
	var pctr metrics.Counter
	poolAns, poolErrs := collectStream(t, len(qs),
		remote.QueryStream(ctx, qs, backend.WithVerify(pub), backend.WithCounter(&pctr), backend.WithWorkers(4)))
	for i := range qs {
		if (gotErrs[i] == nil) != (poolErrs[i] == nil) {
			t.Fatalf("query %d: serial err=%v, pooled err=%v", i, gotErrs[i], poolErrs[i])
		}
		if string(poolAns[i].Raw) != string(gotAns[i].Raw) || len(poolAns[i].Records) != len(gotAns[i].Records) {
			t.Fatalf("query %d: pooled verification diverged from serial", i)
		}
	}
	if pctr.Bytes != sctr.Bytes || pctr.SigVerifies != sctr.SigVerifies {
		t.Errorf("pooled counter (bytes=%d verifies=%d) != serial (bytes=%d verifies=%d)",
			pctr.Bytes, pctr.SigVerifies, sctr.Bytes, sctr.SigVerifies)
	}
	// An early break under the pooled path joins cleanly.
	got := 0
	for _, r := range remote.QueryStream(ctx, qs, backend.WithVerify(pub), backend.WithWorkers(4)) {
		_ = r
		got++
		break
	}
	if got != 1 {
		t.Fatalf("pooled early break consumed %d items", got)
	}

	for i := range qs {
		if (wantErrs[i] == nil) != (gotErrs[i] == nil) {
			t.Fatalf("query %d: batch err=%v, stream err=%v", i, wantErrs[i], gotErrs[i])
		}
		if wantErrs[i] != nil {
			continue
		}
		if string(gotAns[i].Raw) != string(wantAns[i].Raw) {
			t.Fatalf("query %d: streamed bytes differ from batched bytes", i)
		}
		if len(gotAns[i].Records) != len(wantAns[i].Records) {
			t.Fatalf("query %d: stream verified %d records, batch %d",
				i, len(gotAns[i].Records), len(wantAns[i].Records))
		}
		for j := range wantAns[i].Records {
			if gotAns[i].Records[j].ID != wantAns[i].Records[j].ID {
				t.Fatalf("query %d record %d: ID %d vs %d", i, j,
					gotAns[i].Records[j].ID, wantAns[i].Records[j].ID)
			}
		}
		if gotAns[i].Shard != wantAns[i].Shard {
			t.Fatalf("query %d: stream shard %d, batch shard %d", i, gotAns[i].Shard, wantAns[i].Shard)
		}
	}
	if sctr.Bytes != bctr.Bytes {
		t.Errorf("stream accounted %d answer bytes, batch %d", sctr.Bytes, bctr.Bytes)
	}
	if rc.count("/query/stream") != 3 {
		t.Errorf("POST /query/stream served %d times, want 3 (serial, pooled, early break)", rc.count("/query/stream"))
	}
}

// gateBackend is a controllable backend: queries with K == 1 answer
// immediately, every other query blocks on the gate. It hands the
// stream context out so tests can observe server-side cancellation.
type gateBackend struct {
	gate    chan struct{}
	started atomic.Int64
	ctxCh   chan context.Context
}

func newGateBackend() *gateBackend {
	return &gateBackend{gate: make(chan struct{}), ctxCh: make(chan context.Context, 1)}
}

func (g *gateBackend) process(q query.Query, ctr *metrics.Counter) (int, uint64, []byte, error) {
	g.started.Add(1)
	if q.K != 1 {
		<-g.gate
	}
	return wire.ShardNone, g.Epoch(), []byte{0xA1, byte(q.K)}, nil
}

func (g *gateBackend) Name() string { return "ifmh-multi" }

// Epoch is what the handler publishes on /params and every answer is
// stamped with: a bundle without one does not dial.
func (g *gateBackend) Epoch() uint64 { return 1 }

func (g *gateBackend) Query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	return backend.One(ctx, g, q, opts...)
}

func (g *gateBackend) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	return backend.DriveBatch(ctx, g.process, qs, opts...)
}

func (g *gateBackend) QueryStream(ctx context.Context, qs []query.Query, opts ...backend.Option) iter.Seq2[int, backend.BatchResult] {
	select {
	case g.ctxCh <- ctx:
	default:
	}
	return backend.DriveStream(ctx, g.process, qs, opts...)
}

// gateParams builds a valid trust bundle around the fixture verifier so
// Dial accepts the gate backend's handler.
func gateParams(t *testing.T, pub verify.PublicParams) Params {
	t.Helper()
	vb, err := verify.MarshalVerifier(pub.Verifier)
	if err != nil {
		t.Fatal(err)
	}
	return Params{
		Backend:  "ifmh-multi",
		Verifier: base64.StdEncoding.EncodeToString(vb),
		Template: toTplJSON(pub.Template),
	}
}

// TestStreamFirstItemBeforeLast proves the transport pipelines: the
// client observes the first streamed answer while every other query is
// still blocked inside the server. A buffered exchange cannot pass this
// test — the first yield would wait for the whole frame, which waits
// for the gate, which only opens after the first yield.
func TestStreamFirstItemBeforeLast(t *testing.T) {
	_, pub, _ := fixtures(t)
	g := newGateBackend()
	h, err := NewBackendHandler(g, gateParams(t, pub))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	remote, err := DialRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}

	x := geometry.Point{0}
	qs := []query.Query{
		query.NewTopK(x, 1), // the fast lane
		query.NewTopK(x, 2),
		query.NewTopK(x, 3),
		query.NewTopK(x, 4),
	}
	watchdog := time.AfterFunc(30*time.Second, func() { close(g.gate) })
	defer watchdog.Stop()
	first := true
	for i, r := range remote.QueryStream(context.Background(), qs) {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if first {
			if !watchdog.Stop() {
				t.Fatal("first item only arrived after the watchdog opened the gate: the transport buffered")
			}
			if i != 0 {
				t.Fatalf("first streamed item is index %d, want the unblocked 0", i)
			}
			close(g.gate) // let the rest finish
			first = false
		}
	}
}

// TestStreamEarlyBreakCancelsServer pins the honest early break: a
// client that stops consuming closes the exchange, the server's request
// context cancels, the worker pool stops claiming queries, and the
// server tally records only what was delivered — not the full batch.
func TestStreamEarlyBreakCancelsServer(t *testing.T) {
	_, pub, _ := fixtures(t)
	g := newGateBackend()
	h, err := NewBackendHandler(g, gateParams(t, pub))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Path == "/query/stream" {
			close(done)
		}
	}))
	defer ts.Close()
	remote, err := DialRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}

	// One fast query, then far more gated ones than the server pool has
	// workers, so the pool cannot have started them all by the time the
	// cancellation lands.
	n := 2*runtime.GOMAXPROCS(0) + 8
	x := geometry.Point{0}
	qs := make([]query.Query, n)
	qs[0] = query.NewTopK(x, 1)
	for i := 1; i < n; i++ {
		qs[i] = query.NewTopK(x, 2)
	}

	got := 0
	for _, r := range remote.QueryStream(context.Background(), qs) {
		if r.Err != nil {
			t.Fatalf("first streamed item failed: %v", r.Err)
		}
		got++
		break // the honest early break
	}
	if got != 1 {
		t.Fatalf("consumed %d items before breaking, want 1", got)
	}

	// The break must cancel the server-side stream...
	var srvCtx context.Context
	select {
	case srvCtx = <-g.ctxCh:
	case <-time.After(10 * time.Second):
		t.Fatal("server never started streaming")
	}
	select {
	case <-srvCtx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("client break never canceled the server-side context")
	}
	// ...so that once the in-flight queries drain, the pool has claimed
	// strictly fewer than the whole batch.
	close(g.gate)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream handler never returned")
	}
	if started := int(g.started.Load()); started >= n {
		t.Fatalf("server started all %d queries despite the early break", started)
	}

	// The server tally saw only delivered items.
	stats := getStats(t, ts.URL)
	if total := stats.Queries + stats.Errors; total >= n {
		t.Fatalf("server tallied %d served queries for a broken stream of %d", total, n)
	}
}

// killAfterWrites tears a response down after max successful writes,
// emulating a server process dying mid-stream: the frames written so
// far reach the client, the rest of the stream never does, and the
// response body ends without a trailer.
type killAfterWrites struct {
	http.ResponseWriter
	writes, max int
}

func (kw *killAfterWrites) Write(b []byte) (int, error) {
	if kw.writes >= kw.max {
		return 0, errors.New("server died mid-stream")
	}
	kw.writes++
	return kw.ResponseWriter.Write(b)
}

func (kw *killAfterWrites) Flush() {
	if f, ok := kw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestFanoutStreamMidServerDeath kills one shard server mid-stream and
// pins the blast radius: exactly that shard's undelivered items fail
// (its delivered ones and the whole other shard survive), every index
// still yields exactly once, and the fanout's merge goroutines all
// exit.
func TestFanoutStreamMidServerDeath(t *testing.T) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 90, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{Rand: sig.DeterministicRand(9)})
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{
		Mode: verify.MultiSignature, Signer: signer, Domain: dom,
		Template: funcs.AffineLine(0, 1), Seed: 4,
	}
	plan, err := shard.NewPlan(dom, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	set := buildSet(t, tbl, p, plan)
	urls := make([]string, 2)
	for i, tree := range set.Trees {
		srv := newServer(t, local(t, tree))
		h, err := NewIFMHHandler(srv, tree.Public())
		if err != nil {
			t.Fatal(err)
		}
		var hh http.Handler = h
		if i == 1 {
			// Shard 1 dies after the stream header plus one item frame.
			hh = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/query/stream" {
					h.ServeHTTP(&killAfterWrites{ResponseWriter: w, max: 2}, r)
					return
				}
				h.ServeHTTP(w, r)
			})
		}
		ts := httptest.NewServer(hh)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	f, _, err := DialFanout(urls, nil)
	if err != nil {
		t.Fatal(err)
	}

	qs := streamBatch(dom, 32)
	owner := make([]int, len(qs))
	perShard := make([]int, 2)
	for i, q := range qs {
		owner[i] = -1
		if sh, err := f.Plan().Route(q.X); err == nil {
			owner[i] = sh
			perShard[sh]++
		}
	}
	if perShard[0] == 0 || perShard[1] < 2 {
		t.Fatalf("bad workload split %v: need both shards hit, shard 1 at least twice", perShard)
	}

	before := runtime.NumGoroutine()
	const rounds = 8
	for round := 0; round < rounds; round++ {
		answers, errs := collectStream(t, len(qs), f.QueryStream(context.Background(), qs))
		dead := 0
		for i := range qs {
			switch owner[i] {
			case -1: // unroutable by construction
				if errs[i] == nil {
					t.Fatalf("round %d: out-of-domain query %d succeeded", round, i)
				}
			case 0: // the healthy shard: everything arrives
				if errs[i] != nil {
					t.Fatalf("round %d: healthy-shard query %d failed: %v", round, i, errs[i])
				}
				if answers[i].Shard != 0 {
					t.Fatalf("round %d: query %d attributed to shard %d", round, i, answers[i].Shard)
				}
			case 1: // the dying shard: one delivered item, the rest fail as a stream error
				if errs[i] != nil {
					if !strings.Contains(errs[i].Error(), "stream") {
						t.Fatalf("round %d: query %d failed outside the stream: %v", round, i, errs[i])
					}
					dead++
				} else if answers[i].Shard != 1 {
					t.Fatalf("round %d: query %d attributed to shard %d", round, i, answers[i].Shard)
				}
			}
		}
		if want := perShard[1] - 1; dead != want {
			t.Fatalf("round %d: %d of shard 1's %d items failed, want exactly the %d undelivered",
				round, dead, perShard[1], want)
		}
	}
	// A per-round goroutine leak in the merge would accumulate across
	// the rounds; allow a little slack for idle HTTP connections.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+6 {
		time.Sleep(20 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before+6 {
		t.Errorf("goroutines grew from %d to %d across %d failed streams", before, now, rounds)
	}
}

// TestStreamRouteMissingFailsItems pins what replaced the buffered
// downgrade: every handler in this module serves POST /query/stream, so
// a 404 on it (e.g. a stripping proxy) is a bad status like any other —
// every item fails exactly once with the *RemoteError naming the
// server, nothing is silently re-routed through POST /query/batch, and
// each later stream asks the route again (no latch).
func TestStreamRouteMissingFailsItems(t *testing.T) {
	srv, pub, dom := fixtures(t)
	h, err := NewIFMHHandler(srv, pub)
	if err != nil {
		t.Fatal(err)
	}
	rc := newRouteCounter(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/query/stream" {
			http.NotFound(w, r)
			return
		}
		h.ServeHTTP(w, r)
	}))
	ts := httptest.NewServer(rc)
	defer ts.Close()
	remote, err := DialRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	qs := streamBatch(dom, 12)
	ctx := context.Background()
	for round := 1; round <= 2; round++ {
		_, errs := collectStream(t, len(qs), remote.QueryStream(ctx, qs, backend.WithVerify(pub)))
		for i, err := range errs {
			var re *RemoteError
			if !errors.As(err, &re) || re.URL != ts.URL || !strings.Contains(err.Error(), "404") {
				t.Fatalf("round %d item %d: err = %v, want a RemoteError for %s carrying the 404", round, i, err, ts.URL)
			}
		}
		if got := rc.count("/query/stream"); got != round {
			t.Errorf("POST /query/stream hit %d times after %d streams", got, round)
		}
	}
	if got := rc.count("/query/batch"); got != 0 {
		t.Errorf("a missing stream route fell back to POST /query/batch (%d hits)", got)
	}
}

// TestQueryOversizeRequest is the regression for the silent-truncation
// bug: an over-limit request body used to be cut at the limit and
// misreported as a 400 bad query; it is a 413 on both query routes,
// whose limit is the 4 MiB of a query batch.
func TestQueryOversizeRequest(t *testing.T) {
	srv, pub, dom := fixtures(t)
	h, err := NewIFMHHandler(srv, pub)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/octet-stream", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Oversize: one byte past the limit must be a 413, not a truncated
	// parse failure.
	big := make([]byte, maxBatchBytes+1)
	copy(big, wire.EncodeQueryBatch([]query.Query{query.NewTopK(geometry.Point{dom.Lo[0]}, 1)}))
	for _, path := range []string{"/query/batch", "/query/stream"} {
		if got := post(path, big); got != http.StatusRequestEntityTooLarge {
			t.Errorf("oversize %s = %d, want 413", path, got)
		}
		// In-limit garbage is still a 400.
		if got := post(path, []byte{0xFF, 1, 2}); got != http.StatusBadRequest {
			t.Errorf("bad %s = %d, want 400", path, got)
		}
	}
}

// TestRemoteCanceledContext: a canceled context aborts every Remote
// entry point's HTTP exchange and surfaces context.Canceled on every
// item — no unverified frame ever reaches the verification fan-out —
// and the same remote still answers under a live context.
func TestRemoteCanceledContext(t *testing.T) {
	srv, pub, dom := fixtures(t)
	h, err := NewIFMHHandler(srv, pub)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	r, withVerify := dialVerifying(t, ts.URL, nil)
	q := query.NewTopK(geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}, 2)
	qs := []query.Query{q}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Query(ctx, q, withVerify); !errors.Is(err, context.Canceled) {
		t.Errorf("Query on a canceled context: %v, want context.Canceled", err)
	}
	if _, errs := r.QueryBatch(ctx, qs, withVerify); !errors.Is(errs[0], context.Canceled) {
		t.Errorf("QueryBatch on a canceled context: %v, want context.Canceled", errs[0])
	}
	for _, res := range r.QueryStream(ctx, qs, withVerify) {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("QueryStream on a canceled context: %v, want context.Canceled", res.Err)
		}
	}

	// The live paths still work.
	if ans, err := r.Query(context.Background(), q, withVerify); err != nil || len(ans.Records) == 0 {
		t.Fatalf("live Query: recs=%d err=%v", len(ans.Records), err)
	}
	if answers, errs := r.QueryBatch(context.Background(), qs, withVerify); errs[0] != nil || len(answers[0].Records) == 0 {
		t.Fatalf("live QueryBatch: err=%v", errs[0])
	}
}
