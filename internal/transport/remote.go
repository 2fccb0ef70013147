package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"sync"

	"aqverify/internal/backend"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/wire"
)

// Remote lifts an HTTPClient into the unified query plane: a vqserve
// process reached over HTTP becomes a backend.Backend, interchangeable
// with an in-process tree — and composable, K single-shard Remotes
// behind one backend.Fanout being the multi-process shard deployment.
//
// Answers are returned raw by default, exactly as they traveled;
// WithVerify(pub) checks each one against the owner's published
// parameters first, like every other backend. QueryBatch spends one
// HTTP exchange for the whole batch; QueryStream opens the pipelined
// POST /query/stream exchange and yields each item — verified as it
// lands, under WithVerify, across the WithWorkers pool when one is
// requested — the moment its frame arrives, in completion order.
// Against a server that predates the route (no /params capability, or
// a 404) it falls back to the buffered batch exchange.
type Remote struct {
	c *HTTPClient
	// relay disables pin enforcement: a front-end's child remote
	// forwards every answer with its epoch stamp intact — the end
	// client, not the relay, holds the pin — and tracks the newest
	// epoch seen so the composed /params stays current across the
	// shard's swaps. Set by DialGroups at composition time, before the
	// remote serves traffic.
	relay bool
}

// NewRemote wraps a dialed client.
func NewRemote(c *HTTPClient) (*Remote, error) {
	if c == nil {
		return nil, fmt.Errorf("transport: remote backend needs a dialed client")
	}
	return &Remote{c: c}, nil
}

// DialRemote dials the base URL and returns it as a backend.
func DialRemote(base string, hc *http.Client) (*Remote, error) {
	c, err := Dial(base, hc)
	if err != nil {
		return nil, err
	}
	return NewRemote(c)
}

// Client returns the underlying HTTP client.
func (r *Remote) Client() *HTTPClient { return r.c }

// RemoteError wraps a transport-level failure — network error, non-200
// status, unparseable frame — with the base URL of the server that
// failed, so a composed deployment (fanout, replica set) can name the
// replica at fault and classify the failure (errors.As) for failover.
// Per-item outcomes that traveled inside a healthy exchange (refusals,
// epoch mismatches, failed verification) are never wrapped: the server
// answered, it is not at fault at the transport level.
type RemoteError struct {
	URL string
	Err error
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: backend %s: %v", e.URL, e.Err)
}

func (e *RemoteError) Unwrap() error { return e.Err }

// wrapErr attributes a transport-level failure to this remote's URL.
func (r *Remote) wrapErr(err error) error {
	if err == nil {
		return nil
	}
	return &RemoteError{URL: r.c.base, Err: err}
}

// Name implements backend.Backend, reporting the server's advertised
// backend name.
func (r *Remote) Name() string { return r.c.Backend() }

// Epoch returns the publication epoch the client pinned at dial (or
// last Refresh); 0 for pre-epoch servers.
func (r *Remote) Epoch() uint64 { return r.c.Epoch() }

// epochErr checks one wire item against the pinned epoch: a nonzero
// item epoch that disagrees with a nonzero pin is the typed staleness
// signal — the server swapped a mutated bundle in since the pin, or a
// lagging replica answered. The caller surfaces it instead of the
// answer; HTTPClient.Refresh re-pins and the query can be retried.
func (r *Remote) epochErr(it wire.BatchAnswer) error {
	pin := r.c.Epoch()
	if it.Epoch == 0 || pin == 0 || it.Epoch == pin {
		return nil
	}
	if r.relay {
		r.c.observeEpoch(it.Epoch)
		return nil
	}
	return &backend.EpochError{Want: pin, Got: it.Epoch, Shard: it.Shard}
}

// Query implements backend.Backend. The single-query exchange carries
// no epoch word (the answer body is the bare wire answer), so the
// answer is stamped with the session's pinned epoch — a pinned client's
// single answers belong to that session by contract. Staleness
// detection applies to the batch and stream exchanges, whose frames
// carry the server's actual epoch.
func (r *Remote) Query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	return backend.DriveQuery(ctx, func(q query.Query, ctr *metrics.Counter) (int, uint64, []byte, error) {
		raw, err := r.c.rawQuery(ctx, q)
		ctr.AddBytes(uint64(len(raw)))
		return wire.ShardNone, r.c.Epoch(), raw, r.wrapErr(err)
	}, q, opts...)
}

// QueryBatch implements backend.Backend: the whole batch travels in one
// POST /query/batch exchange, per-item failures travel inside the frame,
// and verification (when requested) fans out locally. A transport-level
// failure — network error, non-200 status, unparseable frame — fails
// every item.
func (r *Remote) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	answers := make([]backend.Answer, len(qs))
	errs := make([]error, len(qs))
	if len(qs) == 0 {
		return answers, errs
	}
	items, err := r.c.rawBatch(ctx, qs)
	if err != nil {
		err = r.wrapErr(err)
		for i := range errs {
			answers[i].Shard = wire.ShardNone
			errs[i] = err
		}
		return answers, errs
	}
	for i, it := range items {
		answers[i].Shard = it.Shard
		answers[i].Epoch = it.Epoch
		if it.Status == wire.StatusRefused {
			errs[i] = fmt.Errorf("transport: server refused query %d: %s", i, it.Err)
			continue
		}
		if err := r.epochErr(it); err != nil {
			errs[i] = err
			continue
		}
		answers[i].Raw = it.Answer
	}
	backend.FinishBatch(ctx, qs, answers, errs, opts...)
	return answers, errs
}

// QueryStream implements backend.Backend over the pipelined wire
// transport: the batch travels in one POST /query/stream exchange whose
// response is decoded frame by frame off the open body, so each item
// yields — verified first, under WithVerify — as the server completes
// it, in completion order, with the first result observable before the
// last one is computed. Breaking out of the iteration closes the body
// and cancels the request, which cancels the server's in-flight work. A
// mid-stream transport failure (the server died, the frame stream is
// truncated or malformed) fails exactly the items that had not yet been
// delivered; so does any non-200 status on the post, the route's 404
// included — every handler in this module serves it.
func (r *Remote) QueryStream(ctx context.Context, qs []query.Query, opts ...backend.Option) iter.Seq2[int, backend.BatchResult] {
	return func(yield func(int, backend.BatchResult) bool) {
		if len(qs) == 0 {
			return
		}
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		sr, body, err := r.c.openStream(ctx, qs)
		delivered := make([]bool, len(qs))
		if err != nil {
			failUndelivered(delivered, r.wrapErr(err), yield)
			return
		}
		defer body.Close()
		fin := backend.NewFinisher(opts...)
		if workers := fin.Workers(len(qs)); fin.Verifies() && workers > 1 {
			// Per-item verification is real work; overlap it with the
			// network and with itself across the requested pool.
			r.streamVerifyPool(ctx, cancel, sr, qs, opts, workers, yield)
			return
		}
		defer fin.Flush()
		for {
			item, err := sr.Next()
			if errors.Is(err, io.EOF) {
				return // strict trailer: every item was delivered
			}
			if err != nil {
				failUndelivered(delivered, r.wrapErr(fmt.Errorf("transport: answer stream: %w", err)), yield)
				return
			}
			delivered[item.Index] = true
			if !yield(item.Index, r.streamResultOf(fin, qs, item)) {
				return // deferred close + cancel abort the server side
			}
		}
	}
}

// streamResultOf converts one decoded item frame into the consumer's
// result, finishing (byte accounting and, under WithVerify, in-place
// verification) answered items after the epoch check. A failed
// verification or epoch mismatch keeps the shard and epoch attribution
// and drops the bytes, per the Answer contract.
func (r *Remote) streamResultOf(fin *backend.Finisher, qs []query.Query, item wire.StreamItem) backend.BatchResult {
	res := backend.BatchResult{Answer: backend.Answer{Shard: item.Ans.Shard, Epoch: item.Ans.Epoch}}
	if item.Ans.Status == wire.StatusRefused {
		res.Err = fmt.Errorf("transport: server refused query %d: %s", item.Index, item.Ans.Err)
		return res
	}
	if err := r.epochErr(item.Ans); err != nil {
		res.Err = err
		return res
	}
	res.Answer.Raw = item.Ans.Answer
	if err := fin.Finish(qs[item.Index], &res.Answer); err != nil {
		return backend.BatchResult{Answer: backend.Answer{Shard: item.Ans.Shard, Epoch: item.Ans.Epoch}, Err: err}
	}
	return res
}

// streamVerifyPool drains the frame decoder through a bounded
// verification pool: one reader goroutine decodes frames off the open
// body as they arrive, the workers verify them concurrently (each into
// its own Finisher, flushed serially after the join, keeping the
// WithCounter single-goroutine contract), and the consumer yields
// verification-completion order. An early break cancels the request,
// which aborts the body read and unwinds reader and workers; a
// mid-stream transport failure fails exactly the items not yet yielded.
func (r *Remote) streamVerifyPool(ctx context.Context, cancel context.CancelFunc, sr *wire.StreamReader,
	qs []query.Query, opts []backend.Option, workers int, yield func(int, backend.BatchResult) bool) {
	type indexed struct {
		i int
		r backend.BatchResult
	}
	frames := make(chan wire.StreamItem)
	results := make(chan indexed)
	finishers := make([]*backend.Finisher, workers)
	for w := range finishers {
		finishers[w] = backend.NewFinisher(opts...)
	}
	var rerr error // written by the reader, read after results closes
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // reader
		defer wg.Done()
		defer close(frames)
		for {
			item, err := sr.Next()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				rerr = r.wrapErr(fmt.Errorf("transport: answer stream: %w", err))
				return
			}
			select {
			case frames <- item:
			case <-ctx.Done():
				rerr = ctx.Err()
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for item := range frames {
				select {
				case results <- indexed{item.Index, r.streamResultOf(finishers[w], qs, item)}:
				case <-ctx.Done():
					return
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(results) }()

	// Consume until the pool drains; keep draining after a break so the
	// join (and the counter flush) always happens on this goroutine.
	delivered := make([]bool, len(qs))
	broke := false
	for item := range results {
		if broke {
			continue
		}
		delivered[item.i] = true
		if !yield(item.i, item.r) {
			broke = true
			cancel() // aborts the body read, unblocking the reader
		}
	}
	for _, f := range finishers {
		f.Flush()
	}
	if broke {
		return
	}
	if rerr != nil {
		failUndelivered(delivered, rerr, yield)
	}
}

// failUndelivered yields err for every index the stream had not
// delivered when it failed: a transport-level failure costs exactly the
// undelivered items, never the ones already yielded.
func failUndelivered(delivered []bool, err error, yield func(int, backend.BatchResult) bool) {
	for i, done := range delivered {
		if done {
			continue
		}
		if !yield(i, backend.BatchResult{Answer: backend.Answer{Shard: wire.ShardNone}, Err: err}) {
			return
		}
	}
}
