// Command vqserve runs the cloud server of the outsourcing protocol over
// HTTP: it plays the data owner (generate + sign a database), then serves
// queries with verification objects. A verifying client can point at it
// with nothing but the base URL — the trust bundle is published at
// /params.
//
// Usage:
//
//	vqserve [-addr :8080] [-n 1000] [-backend ifmh|mesh] [-mode one|multi]
//	        [-scheme ed25519] [-seed 1] [-workers 0] [-shards 1] [-shardaxis 0]
//	        [-planner even|quantile] [-shard -1] [-keyseed 0] [-cache]
//	        [-save dir] [-load dir]
//
// -save dir writes the built tree (or the whole K-shard set) as an
// on-disk artifact (internal/artifact, docs/ARTIFACT.md) after the
// build; -load dir boots from one instead of building — the blobs are
// memory-mapped and reconstructed into a serving tree in milliseconds,
// without reading the raw table at all. With -shard i, -load opens just
// that shard's blob of a saved set, so a K-process deployment restarts
// each process from the same artifact directory (or a copy of it);
// vqfront refuses to compose shards of two different saved sets. Either
// way a one-line boot report lands on stderr and /params advertises the
// artifact's content hash and the bundle's provenance (built|loaded).
//
// -cache fronts the server with the in-memory cache tier (internal/cache):
// repeated queries are answered from a whole-answer LRU, concurrent
// identical queries collapse into one walk, and delta-mode subdomain
// permutations are cached per epoch. /stats gains a "cache" object with
// hit/miss/collapse/eviction counters. Epoch swaps invalidate by
// keying — stale entries are never served.
//
// Endpoints: POST /query, POST /query/batch and POST /query/stream
// (binary; the stream route pipelines a batch's answers back in
// completion order, flushed frame by frame), GET /params, GET /stats,
// GET /metrics (Prometheus text exposition of the same counters).
// -workers sizes the construction worker pool of every build
// stage (0 = one per CPU, 1 = serial). -shards K splits the domain into
// K contiguous sub-boxes along -shardaxis and serves one independently
// built and signed IFMH-tree per sub-box; queries route to their owning
// shard and batches are grouped per shard before dispatch. -planner
// quantile places the cuts at the pairwise-breakpoint quantiles instead
// of evenly, balancing skewed (e.g. clustered) data across shards.
// Verification is unchanged — clients cannot tell a sharded server from
// a single tree.
//
// -shard i (with -shards K) builds and serves shard i alone — one
// process per shard, composed back into one logical database by the
// cmd/vqfront routing front-end, which recovers the shard plan from
// each process's advertised serving domain (/params). All K processes
// must be started with the same data flags (the planners are
// deterministic in the data, so every process derives the same cuts)
// and, so their trees carry one owner's signatures, the same -keyseed:
// a nonzero key seed derives the signing key deterministically
// (demo/testing convenience — never protect real data with a 64-bit key
// seed).
//
// A K-process deployment:
//
//	vqserve -addr :8081 -shards 2 -shard 0 -keyseed 7 &
//	vqserve -addr :8082 -shards 2 -shard 1 -keyseed 7 &
//	vqfront -addr :8080 -backends http://localhost:8081,http://localhost:8082
//
// Try it:
//
//	vqserve -n 500 &
//	# in Go: r, _ := transport.DialRemote("http://localhost:8080", nil)
//	#        pub, _ := r.Client().Public()
//	#        ans, err := r.Query(ctx, query.NewTopK(geometry.Point{x}, 10), backend.WithVerify(pub))
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"aqverify/internal/artifact"
	"aqverify/internal/build"
	"aqverify/internal/cache"
	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/record"
	"aqverify/internal/server"
	"aqverify/internal/sig"
	"aqverify/internal/transport"
	"aqverify/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vqserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		n          = flag.Int("n", 1000, "database size (ignored with -data)")
		backendStr = flag.String("backend", "ifmh", "backend: ifmh|mesh")
		modeStr    = flag.String("mode", "one", "IFMH signing mode: one|multi")
		scheme     = flag.String("scheme", "ed25519", "signature scheme")
		seed       = flag.Int64("seed", 1, "workload seed")
		dataPath   = flag.String("data", "", "serve a CSV dataset (vqgen format) instead of synthetic data")
		slopeCol   = flag.Int("slopecol", 0, "attribute index of the slope column (with -data)")
		biasCol    = flag.Int("biascol", 1, "attribute index of the intercept column (with -data)")
		workers    = flag.Int("workers", 0, "construction worker pool size (0 = one per CPU, 1 = serial)")
		shards     = flag.Int("shards", 1, "domain-shard count (ifmh backend; 1 = single tree)")
		shardAx    = flag.Int("shardaxis", 0, "domain axis the shard cuts are perpendicular to")
		plannerStr = flag.String("planner", "even", "shard-cut planner: even|quantile (with -shards)")
		shardIdx   = flag.Int("shard", -1, "serve only this shard of the -shards plan (multi-process deployment; -1 = all)")
		keySeed    = flag.Int64("keyseed", 0, "derive the signing key deterministically from this seed (0 = fresh random key)")
		cacheOn    = flag.Bool("cache", false, "front the server with the in-memory cache tier (ifmh backend; /stats gains a cache object)")
		saveDir    = flag.String("save", "", "save the built tree or shard set as an on-disk artifact in this directory")
		loadDir    = flag.String("load", "", "boot from a saved artifact directory instead of building (ifmh backend; with -shard i, open that shard alone)")
	)
	flag.Parse()

	if *loadDir != "" {
		switch {
		case *backendStr == "mesh":
			return fmt.Errorf("-load applies to the ifmh backend only (the mesh baseline has no artifact form)")
		case *dataPath != "":
			return fmt.Errorf("-load boots from a saved artifact; it cannot be combined with -data")
		case *saveDir != "":
			return fmt.Errorf("-save would re-save what -load just read; copy the artifact directory instead")
		}
		return serveLoaded(*loadDir, *shardIdx, *addr, *cacheOn)
	}
	if *saveDir != "" && *shardIdx >= 0 {
		return fmt.Errorf("-save writes the whole set; drop -shard (each loading process picks its shard with -load -shard i)")
	}

	var (
		tbl record.Table
		dom geometry.Box
		err error
	)
	if *dataPath != "" {
		f, err2 := os.Open(*dataPath)
		if err2 != nil {
			return err2
		}
		tbl, dom, err = workload.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("loaded %d records from %s (schema %q)\n", tbl.Len(), *dataPath, tbl.Schema.Name)
	} else {
		tbl, dom, err = workload.Lines(workload.LinesConfig{N: *n, Seed: *seed})
		if err != nil {
			return err
		}
	}
	tpl := funcs.AffineLine(*slopeCol, *biasCol)
	sigOpt := sig.Options{}
	if *keySeed != 0 {
		sigOpt.Rand = sig.DeterministicRand(*keySeed)
	}
	signer, err := sig.NewSigner(sig.Scheme(*scheme), sigOpt)
	if err != nil {
		return err
	}
	planner := build.EvenCuts
	switch *plannerStr {
	case "even":
	case "quantile":
		planner = build.QuantileCuts
	default:
		return fmt.Errorf("unknown planner %q (want even or quantile)", *plannerStr)
	}

	// Everything the server can host is one build.Outsource call away;
	// the flags only shape the option list.
	opts := []build.Option{
		build.WithShuffle(*seed),
		build.WithWorkers(*workers),
	}
	switch *backendStr {
	case "ifmh":
		mode := core.OneSignature
		if *modeStr == "multi" {
			mode = core.MultiSignature
		}
		opts = append(opts, build.WithMode(mode))
		if *shards > 1 || *shardIdx >= 0 {
			if *shardIdx >= *shards {
				return fmt.Errorf("-shard %d out of range for -shards %d", *shardIdx, *shards)
			}
			opts = append(opts, build.WithShards(*shards, *shardAx), build.WithPlanner(planner))
		}
		if *shardIdx >= 0 {
			opts = append(opts, build.WithShard(*shardIdx))
		}
	case "mesh":
		if *shards > 1 || *shardIdx >= 0 {
			return fmt.Errorf("-shards/-shard apply to the ifmh backend only")
		}
		if *cacheOn {
			return fmt.Errorf("-cache applies to the ifmh backend only")
		}
		if *saveDir != "" {
			return fmt.Errorf("-save applies to the ifmh backend only (the mesh baseline has no artifact form)")
		}
		opts = []build.Option{build.WithMesh(), build.WithWorkers(*workers)}
	default:
		return fmt.Errorf("unknown backend %q", *backendStr)
	}

	start := time.Now()
	res, err := build.Outsource(context.Background(),
		build.Spec{Table: tbl, Template: tpl, Domain: dom, Signer: signer}, opts...)
	if err != nil {
		return err
	}

	// -save persists the build as an on-disk artifact; its content hash
	// rides along on /params so clients (and vqfront) can tell which
	// saved publication this process serves.
	artHash := ""
	if *saveDir != "" {
		info, err := artifact.Save(*saveDir, res)
		if err != nil {
			return err
		}
		artHash = info.HashHex()
		fmt.Fprintf(os.Stderr, "vqserve: saved %s artifact %.12s (%d shard(s), epoch %d) to %s\n",
			info.Kind, artHash, info.Shards, info.Epoch, *saveDir)
	}

	var h *transport.Handler
	// With -cache the handler serves the cache-wrapped server — hits and
	// collapsed duplicates skip the tree walk — while /params still
	// publishes the server's own bundle.
	ifmhHandler := func(srv *server.Server) error {
		var err error
		h, err = ifmhHandlerFor(srv, res.Public, artHash, "built", *cacheOn)
		if err != nil {
			return err
		}
		bootReport("built", tbl.Len(), srv.NumShards(), srv.Epoch(), artHash, time.Since(start))
		return nil
	}
	switch {
	case res.Mesh != nil:
		srv, err := server.New(server.Mesh{M: res.Mesh})
		if err != nil {
			return err
		}
		if h, err = transport.NewMeshHandler(srv, res.MeshPublic); err != nil {
			return err
		}
		fmt.Printf("built mesh over %d records in %.1fs: %d subdomains, %d signatures\n",
			tbl.Len(), time.Since(start).Seconds(), res.Mesh.NumSubdomains(), res.Mesh.SignatureCount())
	case res.Set != nil:
		sb, err := server.NewShardedIFMH(res.Set)
		if err != nil {
			return err
		}
		srv, err := server.New(sb)
		if err != nil {
			return err
		}
		if err = ifmhHandler(srv); err != nil {
			return err
		}
		fmt.Printf("built %s over %d records in %.1fs: %d shards (%s cuts), %d subdomains total, %d signature(s)\n",
			srv.Name(), tbl.Len(), time.Since(start).Seconds(),
			res.Set.NumShards(), *plannerStr, res.Set.NumSubdomains(), res.Set.SignatureCount())
		for i, st := range res.Set.Stats() {
			box := res.Plan.Boxes[i]
			fmt.Printf("  shard %d [%g, %g]: %d subdomains, %d signature(s)\n",
				i, box.Lo[res.Plan.Axis], box.Hi[res.Plan.Axis], st.Subdomains, st.Signatures)
		}
	default:
		srv, err := server.New(server.IFMH{Tree: res.Tree})
		if err != nil {
			return err
		}
		if err = ifmhHandler(srv); err != nil {
			return err
		}
		st := res.Tree.Stats()
		if res.Shard != build.ShardNone {
			box := res.Plan.Boxes[res.Shard]
			fmt.Printf("built %s shard %d/%d [%g, %g] over %d records in %.1fs: %d subdomains, %d signature(s)\n",
				srv.Name(), res.Shard, res.Plan.K(), box.Lo[res.Plan.Axis], box.Hi[res.Plan.Axis],
				tbl.Len(), time.Since(start).Seconds(), st.Subdomains, st.Signatures)
		} else {
			fmt.Printf("built %s over %d records in %.1fs: %d subdomains, %d signature(s)\n",
				srv.Name(), tbl.Len(), time.Since(start).Seconds(), st.Subdomains, st.Signatures)
		}
	}

	return serveHTTP(*addr, h, dom)
}

// serveLoaded boots from a saved artifact: the blobs are memory-mapped,
// integrity-checked and reconstructed into a serving tree — no raw
// table, no signing, no build. With shardIdx >= 0 only that shard's
// blob of a saved set is opened (the multi-process restart path).
func serveLoaded(dir string, shardIdx int, addr string, cacheOn bool) error {
	start := time.Now()
	var (
		a   *artifact.Artifact
		err error
	)
	if shardIdx >= 0 {
		a, err = artifact.OpenShard(dir, shardIdx)
	} else {
		a, err = artifact.Open(dir)
	}
	if err != nil {
		return err
	}
	b, err := a.Backend()
	if err != nil {
		return err
	}
	srv, err := server.New(b)
	if err != nil {
		return err
	}
	h, err := ifmhHandlerFor(srv, a.Public, a.HashHex(), "loaded", cacheOn)
	if err != nil {
		return err
	}
	n := 0
	if a.Result.Set != nil {
		n = a.Result.Set.NumRecords()
	} else {
		n = a.Result.Tree.NumRecords()
	}
	bootReport("loaded", n, srv.NumShards(), srv.Epoch(), a.HashHex(), time.Since(start))
	if shardIdx >= 0 {
		fmt.Printf("loaded shard %d of artifact %.12s (%s) from %s\n", shardIdx, a.HashHex(), srv.Name(), dir)
	} else {
		fmt.Printf("loaded artifact %.12s (%s, %d shard(s), epoch %d) from %s\n",
			a.HashHex(), srv.Name(), srv.NumShards(), srv.Epoch(), dir)
	}
	dom, _ := srv.Domain()
	return serveHTTP(addr, h, dom)
}

// ifmhHandlerFor builds the HTTP handler for an IFMH-backed server,
// stamping the artifact hash and provenance onto the published bundle
// and fronting the server with the cache tier when asked.
func ifmhHandlerFor(srv *server.Server, pub core.PublicParams, artHash, provenance string, cacheOn bool) (*transport.Handler, error) {
	p, err := transport.IFMHParams(srv, pub)
	if err != nil {
		return nil, err
	}
	p.Artifact = artHash
	p.Provenance = provenance
	if cacheOn {
		cb, err := cache.Wrap(srv)
		if err != nil {
			return nil, err
		}
		return transport.NewBackendHandler(cb, p)
	}
	return transport.NewBackendHandler(srv, p)
}

// bootReport is the one-line boot summary on stderr — stable key=value
// fields so a supervisor (or a test) can grep how this process came up
// and how long it took.
func bootReport(provenance string, n, shards int, epoch uint64, artHash string, d time.Duration) {
	if shards == 0 {
		shards = 1 // an unsharded server is one tree, not zero
	}
	line := fmt.Sprintf("vqserve: %s n=%d shards=%d epoch=%d in %v", provenance, n, shards, epoch, d.Round(100*time.Microsecond))
	if artHash != "" {
		line += " artifact=" + artHash[:12]
	}
	fmt.Fprintln(os.Stderr, line)
}

func serveHTTP(addr string, h *transport.Handler, dom geometry.Box) error {
	fmt.Printf("serving on %s (domain [%g, %g]); endpoints: POST /query, POST /query/batch, POST /query/stream, GET /params, GET /stats, GET /metrics\n",
		addr, dom.Lo[0], dom.Hi[0])
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}
	return httpSrv.ListenAndServe()
}
