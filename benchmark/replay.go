package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"aqverify/internal/artifact"
	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/cache"
	"aqverify/internal/core"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/shard"
	"aqverify/internal/stats"
	"aqverify/internal/transport"
	"aqverify/internal/wire"
)

// loop times fn over n calls from outside, single-threaded: the mean
// time per call in microseconds and the heap allocations and bytes per
// call (one runtime.MemStats delta around the whole loop — the counters
// are cumulative, so a collection in between changes nothing).
func loop(n int, fn func(i int) error) (us, allocs, allocBytes float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	f := float64(n)
	return float64(elapsed.Nanoseconds()) / 1e3 / f,
		float64(after.Mallocs-before.Mallocs) / f,
		float64(after.TotalAlloc-before.TotalAlloc) / f, nil
}

// replay runs the server half and the client half of qs in the
// benchmark process, one public call per stage — shard.Plan.Route,
// core.Tree.Process, wire.EncodeIFMH, wire.DecodeIFMH, core.Verify —
// and returns the per-layer metrics they yield. trees is index-aligned
// with the plan's shards.
func replay(plan shard.Plan, trees []*core.Tree, pub core.PublicParams, qs []query.Query) (map[string]float64, error) {
	m := map[string]float64{}
	n := len(qs)
	shards := make([]int, n)
	answers := make([]*core.Answer, n)
	raws := make([][]byte, n)
	var err error

	if m["shard.route_us"], _, _, err = loop(n, func(i int) (err error) {
		shards[i], err = plan.Route(qs[i].X)
		return err
	}); err != nil {
		return nil, err
	}

	var walk metrics.Counter
	if m["core.process_us"], m["core.process_allocs"], m["core.process_alloc_bytes"], err = loop(n, func(i int) (err error) {
		answers[i], err = trees[shards[i]].Process(qs[i], &walk)
		return err
	}); err != nil {
		return nil, err
	}
	m["core.process_nodes"] = float64(walk.NodesVisited) / float64(n)
	m["core.process_comparisons"] = float64(walk.Comparisons) / float64(n)

	if m["wire.encode_us"], m["wire.encode_allocs"], m["wire.encode_alloc_bytes"], err = loop(n, func(i int) error {
		raws[i] = wire.EncodeIFMH(answers[i])
		return nil
	}); err != nil {
		return nil, err
	}

	if _, m["wire.decode_allocs"], _, err = loop(n, func(i int) (err error) {
		answers[i], err = wire.DecodeIFMH(raws[i])
		return err
	}); err != nil {
		return nil, err
	}

	var check metrics.Counter
	if _, m["core.verify_allocs"], _, err = loop(n, func(i int) error {
		return core.Verify(pub, qs[i], answers[i].Records, &answers[i].VO, &check)
	}); err != nil {
		return nil, err
	}
	m["core.verify_hashes"] = float64(check.Hashes) / float64(n)
	m["core.verify_sigchecks"] = float64(check.SigVerifies) / float64(n)

	// A cache hit: the whole-answer tier over an in-process tree, on
	// warmed keys. The permutation tier is left off so the wrap does not
	// install anything on the tree.
	var hot []query.Query
	for i, q := range qs {
		if shards[i] == 0 && len(hot) < batchSize {
			hot = append(hot, q)
		}
	}
	local, err := backend.NewLocal(trees[0])
	if err != nil {
		return nil, err
	}
	cached, err := cache.Wrap(local, cache.WithoutPermTier())
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	hit := func(i int) error {
		_, err := cached.Query(ctx, hot[i%len(hot)])
		return err
	}
	if _, _, _, err = loop(len(hot), hit); err != nil { // warm
		return nil, err
	}
	if m["cache.hit_us"], _, _, err = loop(n, hit); err != nil {
		return nil, err
	}
	return m, nil
}

// sigVerifyUS times sig.Verifier.Verify on one fixed message under the
// benchmark's key.
func sigVerifyUS() (float64, error) {
	signer, err := newSigner()
	if err != nil {
		return 0, err
	}
	digest := make([]byte, 32)
	sg, err := signer.Sign(digest)
	if err != nil {
		return 0, err
	}
	v := signer.Verifier()
	us, _, _, err := loop(256, func(int) error { return v.Verify(digest, sg) })
	return us, err
}

// ownerPath runs the owner's side of a set-up in the benchmark process,
// one public call per span: build.Outsource with the options vqgen
// uses, artifact.Save, and the size of what was saved.
func ownerPath(ctx context.Context, in *inputs, dir string) (map[string]float64, error) {
	signer, err := newSigner()
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	start := time.Now()
	res, err := build.Outsource(ctx, build.Spec{Table: in.tbl, Template: in.tpl, Domain: in.dom, Signer: signer},
		build.WithMode(core.MultiSignature), build.WithShards(numShards, 0), build.WithPlanner(build.EvenCuts))
	if err != nil {
		return nil, err
	}
	m["build.outsource_s"] = time.Since(start).Seconds()
	m["build.subdomains"] = float64(res.Set.NumSubdomains())
	m["build.signatures"] = float64(res.Set.SignatureCount())

	start = time.Now()
	if _, err := artifact.Save(dir, res); err != nil {
		return nil, err
	}
	m["artifact.save_ms"] = msSince(start)
	m["artifact.bytes"], err = dirBytes(dir)
	return m, err
}

// dirBytes sums the sizes of the files directly inside dir — an
// artifact directory is flat.
func dirBytes(dir string) (float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += float64(fi.Size())
	}
	return total, nil
}

// exchangeP50US issues qs one at a time, unverified, and returns the
// median exchange time in microseconds.
func exchangeP50US(ctx context.Context, b backend.Backend, qs []query.Query) (float64, error) {
	us := make([]float64, len(qs))
	for i, q := range qs {
		start := time.Now()
		if _, err := b.Query(ctx, q); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return stats.Percentile(us, 50), nil
}

// probeHops measures, with no other load, one query's exchange through
// vqfront and straight at the shards (transport.DialFanout), over the
// coldest queries of the Zipf order so the cache plane stays out of it.
func probeHops(ctx context.Context, s *system, in *inputs) (viaFront, direct float64, err error) {
	qs := in.mixed[len(in.mixed)-256:]
	if viaFront, err = exchangeP50US(ctx, s.remote, qs); err != nil {
		return 0, 0, err
	}
	if s.front == nil {
		return viaFront, viaFront, nil // no front: the client already talks to the server
	}
	urls := make([]string, len(s.serves))
	for i, p := range s.serves {
		urls[i] = p.url
	}
	hc := clientHTTP(1)
	defer hc.CloseIdleConnections()
	fan, _, err := transport.DialFanout(urls, hc)
	if err != nil {
		return 0, 0, fmt.Errorf("dialling the shards directly: %w", err)
	}
	direct, err = exchangeP50US(ctx, fan, qs)
	return viaFront, direct, err
}
