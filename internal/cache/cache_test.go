package cache_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"unsafe"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/cache"
	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/server"
	"aqverify/internal/sig"
	"aqverify/internal/transport"
	"aqverify/internal/verify"
	"aqverify/internal/workload"
)

// outsrc builds an n-record database through the outsourcing plane so
// tests get epoch-stamped trees plus the published bundle.
func outsrc(t *testing.T, n int, mode verify.Mode, opts ...build.Option) *build.Result {
	t.Helper()
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := build.Spec{Table: tbl, Template: funcs.AffineLine(0, 1), Domain: dom, Signer: signer}
	res, err := build.Outsource(context.Background(),
		spec, append([]build.Option{build.WithMode(mode), build.WithShuffle(1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// local and serve host a tree the way vqserve does — a backend.Local
// behind a server.Server — for tests that swap it or put it on HTTP.
func local(t *testing.T, tree *core.Tree) *backend.Local {
	t.Helper()
	b, err := backend.NewLocal(tree)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func serve(t *testing.T, b server.Backend) *server.Server {
	t.Helper()
	srv, err := server.New(b)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// spreadQueries covers the domain with mixed-k top-k queries.
func spreadQueries(dom geometry.Box, n int) []query.Query {
	qs := make([]query.Query, 0, n)
	for i := 0; i < n; i++ {
		x := dom.Lo[0] + (dom.Hi[0]-dom.Lo[0])*float64(i+1)/float64(n+1)
		qs = append(qs, query.NewTopK(geometry.Point{x}, 1+i%5))
	}
	return qs
}

func TestWrapValidation(t *testing.T) {
	if _, err := cache.Wrap(nil); err == nil {
		t.Fatal("Wrap(nil) accepted")
	}
	res := outsrc(t, 40, verify.OneSignature)
	b, err := backend.NewLocal(res.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Wrap(b, cache.WithAnswerCapacity(0)); err == nil {
		t.Fatal("zero answer capacity accepted")
	}
	c, err := cache.Wrap(b, cache.WithAnswerCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != b.Name() || c.Inner() != backend.Backend(b) {
		t.Fatalf("delegation: name %q inner %T", c.Name(), c.Inner())
	}
	if e := backend.Epoch(c); e != res.Tree.Epoch() {
		t.Fatalf("epoch pin %d, tree at %d", e, res.Tree.Epoch())
	}
}

// TestHitMissEvict pins the whole-answer tier's bookkeeping: first
// sight is a miss, repeats hit, capacity overflow evicts, and the
// counter sees a hit's answer bytes.
func TestHitMissEvict(t *testing.T) {
	res := outsrc(t, 60, verify.OneSignature)
	b, err := backend.NewLocal(res.Tree)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.Wrap(b, cache.WithAnswerCapacity(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	qs := spreadQueries(res.Tree.Domain(), 3)

	ans0, err := c.Query(ctx, qs[0])
	if err != nil {
		t.Fatal(err)
	}
	var ctr metrics.Counter
	hit, err := c.Query(ctx, qs[0], backend.WithCounter(&ctr))
	if err != nil {
		t.Fatal(err)
	}
	if string(hit.Raw) != string(ans0.Raw) || hit.Epoch != ans0.Epoch {
		t.Fatal("hit served different bytes than the miss")
	}
	if ctr.Bytes != uint64(len(ans0.Raw)) {
		t.Fatalf("hit charged %d bytes, answer is %d", ctr.Bytes, len(ans0.Raw))
	}
	st := c.CacheStats()
	if st.Hits != 1 || st.EpochHits != 1 || st.Misses != 1 {
		t.Fatalf("after one miss + one hit: %+v", st)
	}

	if _, err := c.Query(ctx, qs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, qs[2]); err != nil {
		t.Fatal(err)
	}
	st = c.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("capacity 2 held 3 entries without evicting: %+v", st)
	}
	if c.Len() > 2 {
		t.Fatalf("Len %d over capacity 2", c.Len())
	}
}

// TestVerifyUpgrade pins the verified-answer semantics: an unverified
// entry verified by a later caller is upgraded in place, and callers
// after that are served the stored records without re-verification
// (observable through the hashing cost: a reused verification hashes
// nothing).
func TestVerifyUpgrade(t *testing.T) {
	res := outsrc(t, 60, verify.OneSignature)
	b, err := backend.NewLocal(res.Tree)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.Wrap(b)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := spreadQueries(res.Tree.Domain(), 1)[0]

	plain, err := c.Query(ctx, q) // miss, unverified
	if err != nil {
		t.Fatal(err)
	}
	if plain.Records != nil {
		t.Fatal("unverified answer carries records")
	}
	var first metrics.Counter
	v1, err := c.Query(ctx, q, backend.WithVerify(res.Public), backend.WithCounter(&first))
	if err != nil {
		t.Fatal(err)
	}
	if v1.Records == nil || first.Hashes == 0 {
		t.Fatalf("verifying hit: records %v, hashes %d", v1.Records != nil, first.Hashes)
	}
	var second metrics.Counter
	v2, err := c.Query(ctx, q, backend.WithVerify(res.Public), backend.WithCounter(&second))
	if err != nil {
		t.Fatal(err)
	}
	if v2.Records == nil || second.Hashes != 0 {
		t.Fatalf("reused verification re-hashed: hashes %d", second.Hashes)
	}
	if len(v1.Records) != len(v2.Records) {
		t.Fatal("upgraded entry served different records")
	}
}

// TestCacheEntriesOwnTheirBytes holds the cache to the backend.Answer.Raw
// contract: a remote batch's answers are views of one response body, and
// an entry outlives the exchange, so each stored entry must own exactly
// its bytes — cap == len, no backing array shared with a neighbour — or a
// 32-answer sub-batch would pin its whole body for the LRU's lifetime.
func TestCacheEntriesOwnTheirBytes(t *testing.T) {
	res := outsrc(t, 120, verify.MultiSignature)
	h, err := transport.NewIFMHHandler(serve(t, local(t, res.Tree)), res.Public)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	remote, err := transport.DialRemote(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.Wrap(remote)
	if err != nil {
		t.Fatal(err)
	}
	qs := spreadQueries(res.Tree.Domain(), 32)
	answers, errs := c.QueryBatch(context.Background(), qs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if c.Len() != len(qs) {
		t.Fatalf("%d entries stored for %d distinct queries", c.Len(), len(qs))
	}
	// The premise: what the remote handed back are views of one body,
	// 17 bytes of item head apart.
	for i := 1; i < len(answers); i++ {
		if gap := span(answers[i].Raw)[0] - span(answers[i-1].Raw)[1]; gap != 17 {
			t.Fatalf("answers %d and %d lie %d bytes apart, want the 17 of one frame's item head", i-1, i, gap)
		}
	}
	// A hit hands out the stored entry's own slice.
	stored, errs := c.QueryBatch(context.Background(), qs)
	if st := c.CacheStats(); st.Hits != int64(len(qs)) || errors.Join(errs...) != nil {
		t.Fatalf("second pass: %+v, errs %v; want every query a hit", st, errors.Join(errs...))
	}
	var spans [][2]uintptr
	for _, ans := range stored {
		raw := ans.Raw
		if cap(raw) != len(raw) {
			t.Errorf("stored entry holds len %d cap %d: it pins more than its answer", len(raw), cap(raw))
		}
		spans = append(spans, span(raw))
	}
	for i, a := range spans {
		for _, ans := range answers {
			if b := span(ans.Raw); a[0] < b[1] && b[0] < a[1] {
				t.Fatalf("stored entry %d aliases the exchange's response body", i)
			}
		}
	}
}

// span is the address range of b's backing array from its first byte.
func span(b []byte) [2]uintptr {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return [2]uintptr{p, p + uintptr(cap(b))}
}
