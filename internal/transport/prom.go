package transport

import (
	"bytes"
	"fmt"
	"log"
	"net/http"

	"aqverify/internal/cache"
)

// This file is the GET /metrics route: the serving tally, cache-plane
// counters and (on a front) the replica/hedge/shed gauges rendered as a
// Prometheus text exposition. The writer is hand-rolled in
// exposition.go (no client library); family names are pinned by a
// golden file in internal/front's tests, so renames are deliberate
// wire-format changes, not refactors.

func (h *Handler) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	epoch := h.liveEpoch()
	var buf bytes.Buffer
	p := NewProm(&buf)

	stats := h.tally.cost()
	p.Scalar("aqv_queries_total", "counter", "Queries answered successfully.", h.tally.queries.Load())
	p.Scalar("aqv_query_errors_total", "counter", "Queries refused or failed.", h.tally.errors.Load())
	p.Scalar("aqv_answer_bytes_total", "counter", "Wire bytes of served answers (VO sizes).", int64(stats.Bytes))
	p.Scalar("aqv_nodes_visited_total", "counter", "IFMH tree nodes traversed answering queries.", int64(stats.NodesVisited))
	p.Scalar("aqv_hashes_total", "counter", "Hash invocations spent answering queries.", int64(stats.Hashes))
	p.Scalar("aqv_sig_verifies_total", "counter", "Signature verifications spent answering queries.", int64(stats.SigVerifies))

	p.Scalar("aqv_epoch", "gauge", "Serving publication epoch.", int64(epoch))
	p.Scalar("aqv_swaps_total", "counter", "Epoch swaps observed.", h.tally.swaps.Load())

	if ss := h.tally.shardStats(); ss != nil {
		p.Family("aqv_shard_queries_total", "counter", "Queries answered, by shard.")
		p.Family("aqv_shard_errors_total", "counter", "Queries refused or failed, by shard.")
		p.Family("aqv_shard_epoch", "gauge", "Publication epoch served, by shard.")
		p.Family("aqv_shard_epoch_lag", "gauge", "Epochs the shard trails the serving epoch.")
		for i, s := range ss {
			l := []Label{{Name: "shard", Value: fmt.Sprint(i)}}
			p.Int("aqv_shard_queries_total", l, int64(s.Queries))
			p.Int("aqv_shard_errors_total", l, int64(s.Errors))
			p.Int("aqv_shard_epoch", l, int64(s.Epoch))
			p.Int("aqv_shard_epoch_lag", l, int64(s.Lag))
		}
	}

	if h.cache != nil {
		writeCacheProm(p, h.cache.CacheStats())
	}
	if h.promSrc != nil {
		h.promSrc.WriteProm(p)
	}

	if err := p.Flush(); err != nil {
		http.Error(w, "render: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", PromContentType)
	if _, err := w.Write(buf.Bytes()); err != nil {
		log.Printf("transport: writing /metrics response: %v", err)
	}
}

func writeCacheProm(p *Prom, cs cache.Stats) {
	p.Scalar("aqv_cache_hits_total", "counter", "Whole-answer cache hits.", cs.Hits)
	p.Scalar("aqv_cache_epoch_hits", "gauge", "Whole-answer cache hits against the current epoch (resets on swap).", cs.EpochHits)
	p.Scalar("aqv_cache_misses_total", "counter", "Whole-answer cache misses.", cs.Misses)
	p.Scalar("aqv_cache_collapses_total", "counter", "Queries that joined an identical in-flight query.", cs.Collapses)
	p.Scalar("aqv_cache_evictions_total", "counter", "Whole-answer entries evicted by the LRU.", cs.Evictions)
}
