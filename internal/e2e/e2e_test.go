// Package e2e wires the three parties of the paper's system model
// together — data owner, cloud server, data user — over the wire codec
// and an adversarial channel, across every surface of the query plane,
// both structures, both signing modes, and all query types.
package e2e

import (
	"bytes"
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/cache"
	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/server"
	"aqverify/internal/shard"
	"aqverify/internal/sig"
	"aqverify/internal/transport"
	"aqverify/internal/workload"
)

var tpl = funcs.AffineLine(0, 1)

// outsource plays the data owner: one Ed25519 key per call, the lines
// workload, whatever product the options select.
func outsource(t testing.TB, tbl record.Table, dom geometry.Box, opts ...build.Option) *build.Result {
	t.Helper()
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return outsourceAs(t, signer, tbl, dom, opts...)
}

func outsourceAs(t testing.TB, signer sig.Signer, tbl record.Table, dom geometry.Box, opts ...build.Option) *build.Result {
	t.Helper()
	res, err := build.Outsource(context.Background(),
		build.Spec{Table: tbl, Template: tpl, Domain: dom, Signer: signer}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// surface is one way a data user can reach the outsourced database,
// with the verification option for the bundle it serves.
type surface struct {
	name   string
	b      backend.Backend
	verify backend.Option
}

// local and newServer host a tree the way vqserve does: a backend.Local
// behind a server.Server.
func local(t testing.TB, tree *core.Tree) *backend.Local {
	t.Helper()
	b, err := backend.NewLocal(tree)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newServer(t testing.TB, b server.Backend) *server.Server {
	t.Helper()
	srv, err := server.New(b)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// serve puts a server on a loopback listener for the test's lifetime.
func serve(t testing.TB, b server.Backend, pub core.PublicParams) string {
	t.Helper()
	h, err := transport.NewIFMHHandler(newServer(t, b), pub)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// surfaces outsources one table under one owner key as a single tree
// and a K-shard set, and stands up every surface of the query plane
// over them: the five backend.Backend implementations (Local, Sharded,
// Server, Remote, Fanout), the cache decorator, and the two HTTP
// surfaces again under dialed parameters. The plan is the K-shard
// set's.
func surfaces(t testing.TB, n, k int, mode core.Mode) ([]surface, shard.Plan, record.Table) {
	t.Helper()
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	single := outsourceAs(t, signer, tbl, dom, build.WithMode(mode), build.WithShuffle(3))
	set := outsourceAs(t, signer, tbl, dom, build.WithMode(mode), build.WithShuffle(3), build.WithShards(k, 0))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	lb := local(t, single.Tree)
	sharded, err := backend.NewSharded(set.Set)
	must(err)
	srv := newServer(t, sharded)
	remote, err := transport.DialRemote(serve(t, lb, single.Public), nil)
	must(err)
	urls := make([]string, k)
	for i, tree := range set.Set.Trees {
		urls[i] = serve(t, local(t, tree), set.Public)
	}
	fanout, _, err := transport.DialFanout(urls, nil)
	must(err)
	cached, err := cache.Wrap(lb)
	must(err)

	verify := backend.WithVerify(single.Public) // one bundle: sharding is transparent
	// What a data user holds is not the owner's struct but what a dial
	// parsed from /params: the same bundle, verifying through the
	// session's signature memo.
	dialedPub, _ := remote.Client().Public()
	shard0, err := transport.Dial(urls[0], nil)
	must(err)
	shardPub, _ := shard0.Public()
	return []surface{
		{"local", lb, verify},
		{"sharded", sharded, verify},
		{"server", srv, verify},
		{"remote", remote, verify},
		{"fanout", fanout, verify},
		{"cached", cached, verify},
		{"remote-dialed", remote, backend.WithVerify(dialedPub)},
		{"fanout-dialed", fanout, backend.WithVerify(shardPub)},
	}, set.Plan, tbl
}

// TestFullRoundTripAllSurfaces: honest answers verify on every surface,
// under both signing modes, and agree with the trusted local execution
// record for record; the caller-side counter observes the bytes.
func TestFullRoundTripAllSurfaces(t *testing.T) {
	for _, mode := range []core.Mode{core.OneSignature, core.MultiSignature} {
		ss, plan, tbl := surfaces(t, 120, 3, mode)
		dom := plan.Domain
		rng := rand.New(rand.NewSource(2))
		var qs []query.Query
		for trial := 0; trial < 8; trial++ {
			x := geometry.Point{dom.Lo[0] + (dom.Hi[0]-dom.Lo[0])*(0.02+0.96*rng.Float64())}
			qs = append(qs,
				query.NewTopK(x, 1+rng.Intn(10)),
				query.NewBottomK(x, 1+rng.Intn(10)),
				query.NewRange(x, -50, 50),
				query.NewKNN(x, 1+rng.Intn(10), rng.NormFloat64()),
			)
		}
		for _, su := range ss {
			t.Run(mode.String()+"/"+su.name, func(t *testing.T) {
				var ctr metrics.Counter
				answers, errs := su.b.QueryBatch(context.Background(), qs, su.verify, backend.WithCounter(&ctr), backend.WithWorkers(4))
				serial, _ := su.b.QueryBatch(context.Background(), qs, su.verify, backend.WithWorkers(1))
				for i, q := range qs {
					if !bytes.Equal(serial[i].Raw, answers[i].Raw) || len(serial[i].Records) != len(answers[i].Records) {
						t.Fatalf("%v: workers=1 and workers=4 disagree", q.Kind)
					}
					if errs[i] != nil {
						t.Fatalf("%v: %v", q.Kind, errs[i])
					}
					want, err := query.Exec(tbl, tpl, q)
					if err != nil {
						t.Fatal(err)
					}
					if len(answers[i].Records) != len(want.Records) {
						t.Fatalf("%v: verified %d records, oracle %d", q.Kind, len(answers[i].Records), len(want.Records))
					}
					for j := range want.Records {
						if answers[i].Records[j].ID != want.Records[j].ID {
							t.Fatalf("%v record %d: ID %d, oracle %d", q.Kind, j, answers[i].Records[j].ID, want.Records[j].ID)
						}
					}
				}
				if ctr.Bytes == 0 || ctr.SigVerifies == 0 {
					t.Errorf("caller-side costs not accumulated: %+v", ctr)
				}
			})
		}
	}
}
