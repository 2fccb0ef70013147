// Command vqfront is the routing front-end of a multi-process shard
// deployment: K vqserve processes each serve one shard of a
// domain-sharded database (vqserve -load dir -shard i), and vqfront
// composes them back into one logical database behind the same
// endpoints a single vqserve exposes. Clients cannot tell the
// difference — the trust bundle, the wire frames and the verification
// procedure are identical; only /stats and /metrics show the per-shard
// fan-out.
//
// Usage:
//
//	vqfront [-addr :8080] [-cache] [-replicas N] [-maxinflight 0]
//	        -backends http://a1;http://a2,http://b1;http://b2
//
// -backends lists one group per shard, comma-separated; within a group,
// semicolons separate that shard's replicas (a plain comma-separated
// list — one process per shard — keeps working unchanged). With
// replicas the front routes each exchange by power-of-two-choices over
// live in-flight counts, fails over once to a sibling when an exchange
// fails wholesale, and health-checks every replica in the background
// (/params probe; consecutive failures eject, recovery re-admits). All
// replicas must serve the same logical database (one backend name,
// verifier key, template; one artifact set when artifact hashes are
// advertised); replicas may lag each other's epoch mid-rollout, which
// shows up on the epoch-lag gauges rather than failing composition.
//
// -replicas N asserts every shard group has exactly N replicas (0
// skips the check). -maxinflight B bounds concurrently admitted
// exchanges; the excess is shed with a 429 instead of queued (0 =
// unbounded).
//
// -cache fronts the replica plane with the in-memory cache tier
// (internal/cache): repeated queries are answered at the front-end
// without touching any shard process. /stats gains a "cache" object and
// /metrics the aqv_cache_* families.
//
// The shard plan is recovered from the backends' advertised serving
// domains exactly as for the unreplicated front; batches — a single
// query is a batch of one, and its answer names its routed shard —
// split per owning shard and forward concurrently. POST /query/batch is
// the one query exchange. GET /metrics serves the Prometheus text
// exposition (tally, cache and front families).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/cache"
	"aqverify/internal/front"
	"aqverify/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vqfront:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		backends = flag.String("backends", "", "shard groups, comma-separated; semicolon-separated replica URLs within a group (required)")
		replicas = flag.Int("replicas", 0, "assert every shard group has exactly this many replicas (0 = any)")
		maxInFl  = flag.Int("maxinflight", 0, "admission bound on concurrently served exchanges; excess is shed with 429 (0 = unbounded)")
		cacheOn  = flag.Bool("cache", false, "front the fan-out with the in-memory cache tier (/stats gains a cache object)")
	)
	flag.Parse()
	if *backends == "" {
		return fmt.Errorf("-backends is required (comma-separated shard groups of semicolon-separated vqserve base URLs)")
	}
	groups, err := parseBackends(*backends, *replicas)
	if err != nil {
		return err
	}

	start := time.Now()
	f, params, err := front.DialFront(groups, front.HTTPClient(), front.Options{
		MaxInFlight: *maxInFl,
		Logf:        log.New(os.Stderr, "", log.LstdFlags).Printf,
	})
	if err != nil {
		return err
	}
	defer f.Close()
	var served backend.Backend = f
	if *cacheOn {
		if served, err = cache.Wrap(f); err != nil {
			return err
		}
	}
	h, err := transport.NewBackendHandler(served, params)
	if err != nil {
		return err
	}
	bootReport(f, params.Artifact, time.Since(start))

	plan := f.Plan()
	fmt.Printf("fronting %s across %d shard groups (domain [%g, %g], axis %d)\n",
		f.Name(), f.NumShards(), plan.Domain.Lo[plan.Axis], plan.Domain.Hi[plan.Axis], plan.Axis)
	for i, b := range plan.Boxes {
		fmt.Printf("  shard %d [%g, %g]: %s\n", i, b.Lo[plan.Axis], b.Hi[plan.Axis], strings.Join(groups[i], " "))
	}
	fmt.Printf("serving on %s; endpoints: POST /query/batch, GET /params, GET /stats, GET /metrics\n", *addr)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}
	return httpSrv.ListenAndServe()
}

// parseBackends splits the -backends flag into shard groups: commas
// separate shards (the shape the unreplicated front always took),
// semicolons separate one shard's replicas.
func parseBackends(s string, wantReplicas int) ([][]string, error) {
	var groups [][]string
	for _, g := range strings.Split(s, ",") {
		var urls []string
		for _, u := range strings.Split(g, ";") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			return nil, fmt.Errorf("-backends has an empty shard group")
		}
		if wantReplicas > 0 && len(urls) != wantReplicas {
			return nil, fmt.Errorf("-replicas %d but shard group %q lists %d replicas", wantReplicas, g, len(urls))
		}
		groups = append(groups, urls)
	}
	return groups, nil
}

// bootReport is the one-line boot summary on stderr — the same stable
// key=value shape vqserve prints, so a supervisor can grep how the
// front came up and what it is fronting.
func bootReport(f *front.Frontend, artHash string, d time.Duration) {
	line := fmt.Sprintf("vqfront: front: shards=%d replicas=%d epoch=%d in %v",
		f.NumShards(), f.Replicas(), f.Epoch(), d.Round(100*time.Microsecond))
	if artHash != "" {
		line += " artifact=" + artHash[:12]
	}
	fmt.Fprintln(os.Stderr, line)
}
