package bench

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/transport"
)

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
	url, stop, err := loopback(b.Tree)
	if err != nil {
		return nil, err
	}
	defer stop()
	remote, err := transport.DialRemote(url, nil)
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
		identical(bufAns, bufErrs, streamAns, streamErrs)}, nil
}
