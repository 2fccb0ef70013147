package transport

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/server"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
)

func fixtures(t *testing.T) (*server.Server, verify.PublicParams, geometry.Box) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	recs := make([]record.Record, 30)
	for i := range recs {
		recs[i] = record.Record{ID: uint64(i + 1), Attrs: []float64{rng.NormFloat64(), rng.NormFloat64()}}
	}
	tbl, err := record.NewTable(record.Schema{
		Name:    "t",
		Columns: []record.Column{{Name: "a"}, {Name: "b"}},
	}, recs)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.ECDSA, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dom := geometry.MustBox([]float64{-1}, []float64{1})
	tpl := funcs.AffineLine(0, 1)
	tree, err := core.BuildCtx(context.Background(), tbl, core.Params{Mode: verify.MultiSignature, Signer: signer, Domain: dom, Template: tpl})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, local(t, tree.Tree))
	return srv, tree.Public(), dom
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

// dialVerifying dials url the way a data user does — with nothing but
// the URL — and derives the verification option from the advertised
// bundle.
func dialVerifying(t *testing.T, url string, hc *http.Client) (*Remote, backend.Option) {
	t.Helper()
	r, err := DialRemote(url, hc)
	if err != nil {
		t.Fatal(err)
	}
	pub, _ := r.Client().Public()
	return r, backend.WithVerify(pub)
}

func TestHTTPRoundTripIFMH(t *testing.T) {
	srv, pub, dom := fixtures(t)
	h, err := NewIFMHHandler(srv, pub)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	r, withVerify := dialVerifying(t, ts.URL, ts.Client())
	if r.Name() != "ifmh-multi" {
		t.Errorf("backend = %q", r.Name())
	}
	x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	var ctr metrics.Counter
	for _, q := range []query.Query{
		query.NewTopK(x, 3),
		query.NewBottomK(x, 3),
		query.NewRange(x, -1, 1),
		query.NewKNN(x, 3, 0),
	} {
		ans, err := r.Query(context.Background(), q, withVerify, backend.WithCounter(&ctr))
		if err != nil {
			t.Fatalf("%v: %v", q.Kind, err)
		}
		if q.Kind != query.Range && len(ans.Records) != 3 {
			t.Fatalf("%v: got %d records", q.Kind, len(ans.Records))
		}
	}
	if ctr.SigVerifies == 0 || ctr.Bytes == 0 {
		t.Errorf("client-side costs not accumulated: %+v", ctr)
	}

	// The dialed parameters verify through the session's memo — the
	// counter above still charged one signature check per answer — and a
	// handler published from them advertises the owner's key, not the
	// wrapper around it.
	dialed, _ := r.Client().Public()
	memo, ok := dialed.Verifier.(*verify.Memoized)
	if !ok || memo.Hits()+memo.Misses() != uint64(ctr.SigVerifies) {
		t.Fatalf("dialed verifier is %T; hits+misses != %d checks", dialed.Verifier, ctr.SigVerifies)
	}
	again, _ := r.Client().Public()
	if again.Verifier != dialed.Verifier {
		t.Error("two Public() calls of one session do not share the memo")
	}
	rh, err := NewIFMHHandler(srv, dialed)
	if err != nil {
		t.Fatalf("handler from dialed parameters: %v", err)
	}
	rts := httptest.NewServer(rh)
	defer rts.Close()
	rc, err := Dial(rts.URL, rts.Client())
	if err != nil {
		t.Fatal(err)
	}
	if rc.Params().Verifier != r.Client().Params().Verifier {
		t.Error("/params served from dialed parameters advertises a different key")
	}
}

// TestDialRefusesWhatNoServerPublishes: a /params naming a backend this
// module has no verifier for, or carrying no publication epoch, fails
// the dial by name — neither is pinned as a session that checks less.
func TestDialRefusesWhatNoServerPublishes(t *testing.T) {
	_, pub, _ := fixtures(t)
	for _, c := range []struct {
		name   string
		mutate func(*Params)
		want   string
	}{
		{"mesh backend", func(p *Params) { p.Backend = "mesh" }, `unknown backend "mesh"`},
		{"no epoch", func(p *Params) { p.Epoch = 0 }, "no publication epoch"},
	} {
		p := gateParams(t, pub)
		p.Epoch = 1
		c.mutate(&p)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, p) }))
		_, err := Dial(ts.URL, ts.Client())
		ts.Close()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// tamperingProxy forwards to target but flips one bit in every query
// route's response body.
type tamperingProxy struct {
	target *url.URL
	hc     *http.Client
}

func (p *tamperingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	u := *p.target
	u.Path = r.URL.Path
	var resp *http.Response
	var err error
	if r.Method == http.MethodPost {
		resp, err = p.hc.Post(u.String(), r.Header.Get("Content-Type"), r.Body)
	} else {
		resp, err = p.hc.Get(u.String())
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	buf := make([]byte, 0, 1<<16)
	tmp := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if rerr != nil {
			break
		}
	}
	if strings.HasPrefix(r.URL.Path, "/query") && len(buf) > 0 {
		buf[len(buf)/3] ^= 0x10
	}
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	w.Write(buf)
}

func TestHTTPTamperingChannelRejected(t *testing.T) {
	srv, pub, dom := fixtures(t)
	h, err := NewIFMHHandler(srv, pub)
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(h)
	defer origin.Close()
	target, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(&tamperingProxy{target: target, hc: origin.Client()})
	defer proxy.Close()

	r, withVerify := dialVerifying(t, proxy.URL, proxy.Client())
	x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	for trial := 0; trial < 10; trial++ {
		if _, err := r.Query(context.Background(), query.NewRange(x, -2, 2), withVerify); !errors.Is(err, verify.ErrVerification) {
			t.Fatalf("bit-flipped HTTP answer: err=%v, want ErrVerification", err)
		}
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	srv, pub, _ := fixtures(t)
	h, err := NewIFMHHandler(srv, pub)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Malformed query bytes, and the retired single-query route: a client
	// of an older build fails loudly there instead of misparsing.
	for _, tc := range []struct {
		path   string
		status int
	}{
		{"/query/batch", http.StatusBadRequest},
		{"/query", http.StatusNotFound},
	} {
		resp, err := ts.Client().Post(ts.URL+tc.path, "application/octet-stream", strings.NewReader("junk"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("junk to POST %s: status %d, want %d", tc.path, resp.StatusCode, tc.status)
		}
	}
	// Out-of-domain query reaches the server and fails there.
	r, withVerify := dialVerifying(t, ts.URL, ts.Client())
	if _, err := r.Query(context.Background(), query.NewTopK(geometry.Point{99}, 1), withVerify); err == nil {
		t.Error("out-of-domain query succeeded")
	} else if errors.Is(err, verify.ErrVerification) {
		t.Errorf("server refusal misclassified as a verification rejection: %v", err)
	}
	// Stats endpoint responds.
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stats: status %d", resp.StatusCode)
	}
	// Dial against a non-server fails cleanly.
	if _, err := Dial("http://127.0.0.1:1", nil); err == nil {
		t.Error("Dial to dead address succeeded")
	}
}
