// Command vqserve runs the cloud server of the outsourcing protocol over
// HTTP: it serves queries, with verification objects, from an artifact
// the data owner built and signed elsewhere. It never holds a signing
// key — the owner's build is `vqgen -outsource -artifact dir`
// (internal/artifact, docs/ARTIFACT.md), and a serving process is
// constructed from that directory alone. A verifying client can point at
// it with nothing but the base URL — the trust bundle is published at
// /params, with the artifact's content hash and provenance "loaded".
//
// Usage:
//
//	vqserve -load dir [-addr :8080] [-shard i] [-cache]
//
// -load dir boots from the artifact: the blobs are memory-mapped,
// integrity-checked and reconstructed into a serving tree (or the whole
// K-shard set) in milliseconds, without reading the raw table at all; a
// one-line boot report lands on stderr. Queries to a shard set route to
// their owning shard and batches are grouped per shard before dispatch;
// clients cannot tell a sharded server from a single tree.
//
// -shard i opens just that shard's blob of a saved set — one process
// per shard, composed back into one logical database by the cmd/vqfront
// routing front-end, which recovers the shard plan from each process's
// advertised serving domain (/params) and refuses to compose shards of
// two different saved sets.
//
// -cache fronts the server with the in-memory cache tier (internal/cache):
// repeated queries are answered from a whole-answer LRU and concurrent
// identical queries collapse into one walk. /stats gains a "cache" object
// with hit/miss/collapse/eviction counters. Epoch swaps invalidate by
// keying — stale entries are never served.
//
// Endpoints: POST /query/batch (binary; the one query exchange — a
// single query is a batch of one), GET /params, GET /stats, GET
// /metrics (Prometheus text exposition of the same counters). POST
// /query and POST /query/stream are retired and answer 404.
//
// A K-process deployment:
//
//	vqgen -n 1000 -outsource -artifact ./art -shards 2
//	vqserve -addr :8081 -load ./art -shard 0 &
//	vqserve -addr :8082 -load ./art -shard 1 &
//	vqfront -addr :8080 -backends http://localhost:8081,http://localhost:8082
//
// Try it:
//
//	vqgen -n 500 -outsource -artifact ./art && vqserve -load ./art &
//	# in Go: r, _ := transport.DialRemote("http://localhost:8080", nil)
//	#        pub, _ := r.Client().Public() // verifies through the session's signature memo
//	#        ans, err := r.Query(ctx, query.NewTopK(geometry.Point{x}, 10), backend.WithVerify(pub))
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"aqverify/internal/artifact"
	"aqverify/internal/backend"
	"aqverify/internal/cache"
	"aqverify/internal/geometry"
	"aqverify/internal/server"
	"aqverify/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vqserve:", err)
		os.Exit(1)
	}
}

// config is everything a serving process is told: where to listen and
// which artifact, or shard of one, to serve.
type config struct {
	addr    string
	loadDir string
	shard   int
	cache   bool
}

// flagSet declares the command's whole flag surface, bound to cfg.
func flagSet(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("vqserve", flag.ExitOnError)
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.loadDir, "load", "", "artifact directory to serve, as written by vqgen -outsource -artifact dir (required)")
	fs.IntVar(&cfg.shard, "shard", -1, "open and serve only this shard of a saved set (multi-process deployment; -1 = all)")
	fs.BoolVar(&cfg.cache, "cache", false, "front the server with the in-memory cache tier (/stats gains a cache object)")
	return fs
}

func run(args []string) error {
	var cfg config
	if err := flagSet(&cfg).Parse(args); err != nil {
		return err
	}
	if cfg.loadDir == "" {
		return errors.New("usage: vqserve -load dir [-addr :8080] [-shard i] [-cache]; " +
			"the owner builds and signs dir with vqgen -outsource -artifact dir")
	}
	start := time.Now()
	a, srv, h, err := load(cfg)
	if err != nil {
		return err
	}
	defer a.Close()

	// The one-line boot summary on stderr: stable key=value fields so a
	// supervisor (or a test) can grep how this process came up and how
	// long it took.
	n, shards := 0, 1 // an unsharded server is one tree, not zero
	var dom geometry.Box
	if set := a.Result.Set; set != nil {
		n, shards, dom = set.NumRecords(), set.NumShards(), set.Plan.Domain
	} else {
		n, dom = a.Result.Tree.NumRecords(), a.Result.Tree.Domain()
	}
	fmt.Fprintf(os.Stderr, "vqserve: loaded n=%d shards=%d epoch=%d in %v artifact=%.12s\n",
		n, shards, srv.Epoch(), time.Since(start).Round(100*time.Microsecond), a.HashHex())
	if cfg.shard >= 0 {
		fmt.Printf("loaded shard %d of artifact %.12s (%s) from %s\n", cfg.shard, a.HashHex(), srv.Name(), cfg.loadDir)
	} else {
		fmt.Printf("loaded artifact %.12s (%s, %d shard(s), epoch %d) from %s\n",
			a.HashHex(), srv.Name(), len(srv.Epochs()), srv.Epoch(), cfg.loadDir)
	}
	fmt.Printf("serving on %s (domain [%g, %g]); endpoints: POST /query/batch, GET /params, GET /stats, GET /metrics\n",
		cfg.addr, dom.Lo[0], dom.Hi[0])
	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}
	return httpSrv.ListenAndServe()
}

// load opens the artifact — the blobs are memory-mapped,
// integrity-checked and reconstructed into a serving tree; no raw table,
// no signing, no build — and wraps it as the HTTP handler: the
// artifact's hash and provenance stamped onto the published bundle, the
// cache tier in front when asked. With cfg.shard >= 0 only that shard's
// blob of a saved set is opened. The caller owns the artifact and closes
// it when the handler goes out of service.
func load(cfg config) (_ *artifact.Artifact, _ *server.Server, _ *transport.Handler, err error) {
	var a *artifact.Artifact
	if cfg.shard >= 0 {
		a, err = artifact.OpenShard(cfg.loadDir, cfg.shard)
	} else {
		a, err = artifact.Open(cfg.loadDir)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	defer func() {
		if err != nil {
			a.Close()
		}
	}()
	b, err := a.Backend()
	if err != nil {
		return nil, nil, nil, err
	}
	srv, err := server.New(b)
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := transport.IFMHParams(srv, a.Public)
	if err != nil {
		return nil, nil, nil, err
	}
	p.Artifact = a.HashHex()
	p.Provenance = "loaded"
	// With -cache the handler serves the cache-wrapped server — hits and
	// collapsed duplicates skip the tree walk — while /params still
	// publishes the server's own bundle.
	var serving backend.Backend = srv
	if cfg.cache {
		if serving, err = cache.Wrap(srv); err != nil {
			return nil, nil, nil, err
		}
	}
	h, err := transport.NewBackendHandler(serving, p)
	if err != nil {
		return nil, nil, nil, err
	}
	return a, srv, h, nil
}
