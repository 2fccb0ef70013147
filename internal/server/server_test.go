package server_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/server"
	"aqverify/internal/shard"
	"aqverify/internal/sig"
	"aqverify/internal/transport"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
)

// local and sharded are the two backends a Server hosts, as they stand.
func local(t *testing.T, tree *core.Tree) *backend.Local {
	t.Helper()
	b, err := backend.NewLocal(tree)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sharded(t *testing.T, set *shard.Set) *backend.Sharded {
	t.Helper()
	b, err := backend.NewSharded(set)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newServer(t *testing.T, b server.Backend) *server.Server {
	t.Helper()
	s, err := server.New(b)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// hosted is a Server behind the HTTP handler — the one thing that
// tallies served traffic — as a dialed session plus its /stats.
type hosted struct {
	*transport.Remote
	url string
}

func host(t *testing.T, srv *server.Server, pub verify.PublicParams) hosted {
	t.Helper()
	h, err := transport.NewIFMHHandler(srv, pub)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	r, err := transport.DialRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return hosted{r, ts.URL}
}

// served is the /stats body.
type served struct {
	Queries      int                   `json:"queries"`
	Errors       int                   `json:"errors"`
	NodesVisited uint64                `json:"nodesVisited"`
	Bytes        uint64                `json:"bytes"`
	Epoch        uint64                `json:"epoch"`
	Swaps        int                   `json:"swaps"`
	PerShard     []transport.ShardStat `json:"perShard"`
}

func (h hosted) stats(t *testing.T) (st served) {
	t.Helper()
	resp, err := http.Get(h.url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func fixtures(t *testing.T) (*core.Tree, geometry.Box) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
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
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dom := geometry.MustBox([]float64{-1}, []float64{1})
	tpl := funcs.AffineLine(0, 1)
	tree, err := core.Build(tbl, core.Params{Mode: verify.OneSignature, Signer: signer, Domain: dom, Template: tpl})
	if err != nil {
		t.Fatal(err)
	}
	return tree, dom
}

func TestNewRequiresBackend(t *testing.T) {
	if _, err := server.New(nil); err == nil {
		t.Error("nil backend accepted")
	}
}

func TestBackendNames(t *testing.T) {
	tree, _ := fixtures(t)
	if got := newServer(t, local(t, tree)).Name(); got != "ifmh-one" {
		t.Errorf("name = %q", got)
	}
}

func TestQueryReturnsDecodableAnswers(t *testing.T) {
	tree, dom := fixtures(t)
	x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	q := query.NewTopK(x, 3)

	srv := newServer(t, local(t, tree))
	ctx := context.Background()
	ans, err := srv.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeIFMH(ans.Raw); err != nil {
		t.Fatalf("IFMH answer not decodable: %v", err)
	}
}

// TestStatsAccumulate: answered queries and their cost accumulate on the
// fronting handler's /stats; refused ones do not count as answered.
func TestStatsAccumulate(t *testing.T) {
	tree, dom := fixtures(t)
	h := host(t, newServer(t, local(t, tree)), tree.Public())
	x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	for i := 0; i < 5; i++ {
		if _, err := h.Query(context.Background(), query.NewTopK(x, 2)); err != nil {
			t.Fatal(err)
		}
	}
	st := h.stats(t)
	if st.Queries != 5 {
		t.Errorf("query count = %d", st.Queries)
	}
	if st.NodesVisited == 0 || st.Bytes == 0 {
		t.Errorf("stats not accumulated: %+v", st)
	}
	// Failed queries do not count.
	if _, err := h.Query(context.Background(), query.NewTopK(geometry.Point{99}, 1)); err == nil {
		t.Fatal("out-of-domain query accepted")
	}
	if st = h.stats(t); st.Queries != 5 || st.Errors != 1 {
		t.Errorf("after a refusal: queries %d errors %d, want 5, 1", st.Queries, st.Errors)
	}
}
