package bench

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/core"
	"aqverify/internal/query"
	"aqverify/internal/server"
	"aqverify/internal/transport"
)

// timeBatch answers the batch on the backend — warm once, then time —
// and returns throughput plus the timed run's outcome. Any failed item
// fails the measurement.
func timeBatch(ctx context.Context, b backend.Backend, qs []query.Query) (float64, []backend.Answer, []error, error) {
	b.QueryBatch(ctx, qs)
	start := time.Now()
	answers, errs := b.QueryBatch(ctx, qs)
	secs := time.Since(start).Seconds()
	if err := errors.Join(errs...); err != nil {
		return 0, nil, nil, fmt.Errorf("%s batch: %w", b.Name(), err)
	}
	return float64(len(qs)) / secs, answers, errs, nil
}

// fanoutRow compares the two shard deployments the unified query plane
// offers: the single-process sharded server (one process, K trees
// behind shard-grouped batch dispatch) against the K-process fanout
// (one HTTP server per shard behind a backend.Fanout front-end, the
// vqfront topology, here on loopback listeners). Both answer the same
// batch over the buffered exchange; the row reports batch throughput
// and cross-checks the timed answers record for record. On this 2-CPU
// host the fanout column mostly prices the HTTP hop — the deployment
// buys per-shard machines, not single-host speed; see EXPERIMENTS.md
// for the protocol.
func fanoutRow(ctx context.Context, h *Harness, p point, bs []*built) ([]string, error) {
	b := bs[0]
	qs := mixedQueries(b.domain, 8*h.Cfg.Reps, h.Cfg.Seed)

	sb, err := server.NewShardedIFMH(b.Set)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(sb)
	if err != nil {
		return nil, err
	}
	shardedQPS, shardedAns, shardedErrs, err := timeBatch(ctx, srv, qs)
	if err != nil {
		return nil, err
	}

	groups, stop, err := loopback(b.Set.Trees, 1, nil)
	if err != nil {
		return nil, err
	}
	defer stop()
	urls := make([]string, len(groups))
	for i, g := range groups {
		urls[i] = g[0]
	}
	front, _, err := transport.DialFanout(urls, nil)
	if err != nil {
		return nil, err
	}
	fanoutQPS, fanoutAns, fanoutErrs, err := timeBatch(ctx, front, qs)
	if err != nil {
		return nil, err
	}
	return []string{fmtInt(p.n), fmtInt(p.k), fmtInt(len(qs)),
		fmt.Sprintf("%.0f", shardedQPS), fmt.Sprintf("%.0f", fanoutQPS),
		fmt.Sprintf("%.2f", fanoutQPS/shardedQPS),
		identical(shardedAns, shardedErrs, fanoutAns, fanoutErrs, false)}, nil
}

// streamRow measures what the pipelined wire transport buys an
// interactive session: the time until the *first verified* result of a
// batch is in the caller's hands. The buffered POST /query/batch
// exchange cannot hand anything over before the whole answer frame has
// been computed, serialized and parsed, so its time-to-first equals its
// full-frame latency; POST /query/stream yields each item as its frame
// arrives, so the first verified result lands after roughly one query's
// work. Both transports answer the same batch against the same server
// and are cross-checked record for record.
func streamRow(ctx context.Context, h *Harness, p point, bs []*built) ([]string, error) {
	b := bs[0]
	groups, stop, err := loopback([]*core.Tree{b.Tree}, 1, nil)
	if err != nil {
		return nil, err
	}
	defer stop()
	remote, err := transport.DialRemote(groups[0][0], nil)
	if err != nil {
		return nil, err
	}
	qs := mixedQueries(b.domain, 8*h.Cfg.Reps, h.Cfg.Seed)
	verify := backend.WithVerify(b.Public)

	// Warm both paths once, then time.
	remote.QueryBatch(ctx, qs, verify)
	for range remote.QueryStream(ctx, qs, verify) {
	}

	start := time.Now()
	bufAns, bufErrs := remote.QueryBatch(ctx, qs, verify)
	batchFull := time.Since(start)

	streamAns, streamErrs := make([]backend.Answer, len(qs)), make([]error, len(qs))
	var streamFirst time.Duration
	start = time.Now()
	for i, r := range remote.QueryStream(ctx, qs, verify) {
		if streamFirst == 0 {
			streamFirst = time.Since(start)
		}
		streamAns[i], streamErrs[i] = r.Answer, r.Err
	}
	streamFull := time.Since(start)
	if err := errors.Join(slices.Concat(bufErrs, streamErrs)...); err != nil {
		return nil, err
	}

	ms := func(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()*1e3) }
	return []string{fmtInt(p.n), fmtInt(len(qs)),
		ms(batchFull), ms(streamFirst), ms(streamFull),
		fmt.Sprintf("%.3f", streamFirst.Seconds()/batchFull.Seconds()),
		identical(bufAns, bufErrs, streamAns, streamErrs, false)}, nil
}
