package main

// workloadDef is one traffic mix. The shape fields are what the code
// can observe about it; Why is the reason it exists, repeated in
// BENCHMARK.json.
type workloadDef struct {
	Name string
	Why  string

	clients int     // load goroutines, one op in flight each, one connection each
	rate    float64 // open loop: ops/s offered; 0 = closed loop
	batch   bool    // an op is one 64-query batch exchange
	zipf    bool    // queries drawn by Zipf popularity, front started with -cache
	inproc  bool    // the deployment lives in the benchmark process and an op is a republish cycle
	tailP   float64 // the highest percentile with at least ten samples beyond it at this op rate
}

var workloads = []workloadDef{
	{Name: "point_open", clients: 2, rate: 400, tailP: 99,
		Why: "Independent issuers: open loop, 400 single mixed queries/s through vqfront to 2 shard processes, cache off; HTTP and the two hops do most of the work, the tree walk little."},
	{Name: "batch_mixed", clients: 1, batch: true, tailP: 99,
		Why: "Closed loop, 1 client, 64-query batches: HTTP cost amortised 64x, so walk, encode, decode and verify do most of the work; the hot-path workload."},
	{Name: "zipf_cached", clients: 1, zipf: true, tailP: 99,
		Why: "Closed loop, 1 client, Zipf(1.1) over 12288 queries (3x the answer cache) with vqfront -cache: hits skip the shard hop and the walk; the other workloads bypass the cache."},
	{Name: "republish", clients: 1, inproc: true, tailP: 90,
		Why: "Closed loop, 1 owner: apply 3 mutations, save, open, swap, refresh, 3 verified queries; the write side of the build layers and the only one-signature VOs."},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef names one reported number. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none. Which end-to-end metric each per-layer metric is
// predicted to move, on which workload, is README.md's interaction
// table.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the numbers a user of the system sees, reported by the
// untraced run on every workload. The times among them — and the rate
// of a closed loop, which is a time inverted — are at nominal host
// speed (hostspeed.go); the report carries them as measured too. Two of
// the issue's eight are not among them. failed_share, because a bounded
// metric may never read 0: failures travel in the result's
// attempted/failed counts and fail the run. op_tail_ms, because its
// run-to-run spread on this sandbox (0.2 to 14 times its median) fits
// no bound the contract allows: it is reported per layer as
// client.op_tail_ms. The bounds are the contract's widest: twice to
// three times the widest spread measured over ten seeds at nominal host
// speed (README.md, Baseline).
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "wire_bytes_per_op", Unit: "bytes", Better: "lower", Bound: 0.10},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer numbers of the traced run, all taken
// from outside the library: process and endpoint counters, client-side
// spans, an in-process replay of the server half, and the owner path.
var perLayer = []metricDef{
	// Process and endpoint counters over the untraced windows.
	{Name: "vqserve.cpu_us_per_answer", Unit: "us", Better: "lower"},
	{Name: "vqfront.cpu_us_per_answer", Unit: "us", Better: "lower"},
	{Name: "client.cpu_us_per_answer", Unit: "us", Better: "lower"},
	{Name: "vqserve.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "vqfront.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "client.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "vqserve.queries", Unit: "count", Better: "higher"},
	{Name: "vqserve.errors", Unit: "count", Better: "lower"},
	{Name: "vqserve.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "vqserve.hashes_per_answer", Unit: "count", Better: "lower"},
	{Name: "vqserve.nodes_per_answer", Unit: "count", Better: "lower"},
	{Name: "vqfront.request_mean_us", Unit: "us", Better: "lower"},
	{Name: "front.hedges", Unit: "count", Better: "lower"},
	{Name: "front.shed", Unit: "count", Better: "lower"},
	{Name: "front.retries", Unit: "count", Better: "lower"},
	{Name: "cache.hit_share", Unit: "ratio", Better: "higher"},
	{Name: "cache.misses", Unit: "count", Better: "lower"},
	{Name: "cache.collapses", Unit: "count", Better: "higher"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "client.allocs_per_answer", Unit: "count", Better: "lower"},
	{Name: "client.alloc_bytes_per_answer", Unit: "bytes", Better: "lower"},
	{Name: "client.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "client.offered_per_s", Unit: "ops/s", Better: "higher"},
	{Name: "client.sched_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.op_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "host.slowdown", Unit: "ratio", Better: "lower"},
	{Name: "client.raw_ops_per_s", Unit: "ops/s", Better: "higher"},
	{Name: "client.raw_op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.raw_cpu_us_per_op", Unit: "us", Better: "lower"},

	// Client-side spans of the traced run.
	{Name: "transport.exchange_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_allocs", Unit: "count", Better: "lower"},
	{Name: "core.verify_us", Unit: "us", Better: "lower"},
	{Name: "core.verify_allocs", Unit: "count", Better: "lower"},
	{Name: "core.verify_hashes", Unit: "count", Better: "lower"},
	{Name: "core.verify_sigchecks", Unit: "count", Better: "lower"},
	{Name: "sig.verify_us", Unit: "us", Better: "lower"},
	{Name: "client.self_us", Unit: "us", Better: "lower"},
	{Name: "vqfront.hop_us", Unit: "us", Better: "lower"},

	// In-process replay of the server half.
	{Name: "shard.route_us", Unit: "us", Better: "lower"},
	{Name: "core.process_us", Unit: "us", Better: "lower"},
	{Name: "core.process_allocs", Unit: "count", Better: "lower"},
	{Name: "core.process_alloc_bytes", Unit: "bytes", Better: "lower"},
	{Name: "core.process_nodes", Unit: "count", Better: "lower"},
	{Name: "core.process_comparisons", Unit: "count", Better: "lower"},
	{Name: "wire.encode_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.encode_alloc_bytes", Unit: "bytes", Better: "lower"},
	{Name: "cache.hit_us", Unit: "us", Better: "lower"},
	{Name: "transport.hop_us", Unit: "us", Better: "lower"},
	{Name: "vqserve.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "client.unattributed_share", Unit: "ratio", Better: "lower"},

	// The owner path: set-up of every workload, the cycle of republish.
	{Name: "build.outsource_s", Unit: "s", Better: "lower"},
	{Name: "build.subdomains", Unit: "count", Better: "lower"},
	{Name: "build.signatures", Unit: "count", Better: "lower"},
	{Name: "artifact.save_ms", Unit: "ms", Better: "lower"},
	{Name: "artifact.bytes", Unit: "bytes", Better: "lower"},
	{Name: "artifact.open_ms", Unit: "ms", Better: "lower"},
	{Name: "vqserve.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "vqfront.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.dial_ms", Unit: "ms", Better: "lower"},
	{Name: "build.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "server.swap_us", Unit: "us", Better: "lower"},
	{Name: "transport.refresh_ms", Unit: "ms", Better: "lower"},
	{Name: "republish.first_answer_ms", Unit: "ms", Better: "lower"},

	// Trace bookkeeping.
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.reconcile_share", Unit: "ratio", Better: "higher"},
}

// fill returns vals completed to exactly the catalogue's names: a
// metric a workload has no reading for reports 0, and a name outside
// the catalogue is a bug.
func fill(defs []metricDef, vals map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(defs))
	for _, d := range defs {
		out[d.Name] = vals[d.Name]
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			panic("benchmark: metric " + name + " is not in the catalogue")
		}
	}
	return out
}
