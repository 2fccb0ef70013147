package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"

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
// requested — the moment its frame arrives, in completion order. There
// is no fallback between the two: a server without the stream route
// fails the stream's items like any other bad status.
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
// last Refresh).
func (r *Remote) Epoch() uint64 { return r.c.Epoch() }

// epochErr checks one answered wire item against the pinned epoch: any
// disagreement is the typed staleness signal — the server swapped a
// mutated bundle in since the pin, or a lagging replica answered. The
// caller surfaces it instead of the answer; HTTPClient.Refresh re-pins
// and the query can be retried.
func (r *Remote) epochErr(it wire.BatchAnswer) error {
	pin := r.c.Epoch()
	if it.Epoch == pin {
		return nil
	}
	if r.relay {
		r.c.observeEpoch(it.Epoch)
		return nil
	}
	return &backend.EpochError{Want: pin, Got: it.Epoch, Shard: it.Shard}
}

// Query implements backend.Backend as a batch of one: it travels POST
// /query/batch, so a single answer is held to the pin and attributed to
// its shard exactly as a batch item is.
func (r *Remote) Query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	return backend.One(ctx, r, q, opts...)
}

// QueryBatch implements backend.Backend: the whole batch travels in one
// POST /query/batch exchange, per-item failures travel inside the frame,
// and verification (when requested) fans out locally. A transport-level
// failure — network error, non-200 status, unparseable frame — fails
// every item.
func (r *Remote) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	if len(qs) == 0 {
		return []backend.Answer{}, []error{}
	}
	items, err := r.c.rawBatch(ctx, qs)
	if err != nil {
		return backend.Collect(len(qs), backend.Fail(make([]bool, len(qs)), r.wrapErr(err)))
	}
	answers := make([]backend.Answer, len(qs))
	errs := make([]error, len(qs))
	for i, it := range items {
		res := r.outcome(i, it)
		answers[i], errs[i] = res.Answer, res.Err
	}
	backend.Resolve(opts).FinishBatch(ctx, qs, answers, errs)
	return answers, errs
}

// outcome turns one wire item — a batch frame's or a stream's — into
// the caller's result, unfinished: a refusal, a typed epoch mismatch,
// or the raw answer bytes. Errors keep the item's shard and epoch
// attribution and carry no bytes, per the Answer contract.
func (r *Remote) outcome(i int, it wire.BatchAnswer) backend.BatchResult {
	res := backend.BatchResult{Answer: backend.Answer{Shard: it.Shard, Epoch: it.Epoch}}
	if it.Status == wire.StatusRefused {
		res.Err = fmt.Errorf("transport: server refused query %d: %s", i, it.Err)
	} else if res.Err = r.epochErr(it); res.Err == nil {
		res.Answer.Raw = it.Answer
	}
	return res
}

// QueryStream implements backend.Backend over the pipelined wire
// transport: the batch travels in one POST /query/stream exchange whose
// response is decoded frame by frame off the open body, so each item
// yields — verified first, under WithVerify — as the server completes
// it, in completion order, with the first result observable before the
// last one is computed. Breaking out of the iteration cancels the
// request and closes the body, which cancels the server's in-flight
// work. A transport failure (the post itself, any non-200 status — the
// route's 404 included, every handler in this module serves it — or a
// frame stream that dies, is truncated or malformed) fails exactly the
// items that had not yet been delivered.
//
// One reader decodes frames and call.Workers goroutines finish them:
// under WithVerify with a pool requested, per-item verification is real
// work, worth overlapping with the network and with itself, and the
// consumer sees verification-completion order.
func (r *Remote) QueryStream(ctx context.Context, qs []query.Query, opts ...backend.Option) iter.Seq2[int, backend.BatchResult] {
	return func(yield func(int, backend.BatchResult) bool) {
		if len(qs) == 0 {
			return
		}
		call := backend.Resolve(opts)
		costs := make([]metrics.Counter, call.Workers(len(qs))) // one per finisher
		delivered := make([]bool, len(qs))
		// The finishers drain frames until the reader closes it, so the
		// reader's sends never block for good.
		frames := make(chan wire.StreamItem)
		var failed error // the reader's verdict, read after the join
		producers := []func(context.Context, func(int, backend.BatchResult) bool){
			func(ctx context.Context, _ func(int, backend.BatchResult) bool) {
				defer close(frames)
				failed = r.readStream(ctx, qs, frames)
			},
		}
		for w := range costs {
			producers = append(producers, func(ctx context.Context, emit func(int, backend.BatchResult) bool) {
				for item := range frames {
					if ctx.Err() != nil {
						continue // broken or canceled: finish nothing the consumer will not see
					}
					res := r.outcome(item.Index, item.Ans)
					if res.Err == nil {
						res.Err = call.Finish(qs[item.Index], &res.Answer, &costs[w])
					}
					delivered[item.Index] = true
					emit(item.Index, res)
				}
			})
		}
		backend.Merge(ctx, yield, func(yield func(int, backend.BatchResult) bool) {
			call.Charge(costs...)
			if failed == nil {
				failed = ctx.Err() // every frame arrived, but a cancel kept the finishers from some
			}
			if failed != nil {
				backend.Fail(delivered, failed)(yield)
			}
		}, producers...)
	}
}

// readStream runs one POST /query/stream exchange under ctx, sending
// each item frame to frames as it is decoded. It returns nil after the
// strict trailer — every item was delivered — and the attributed
// transport error otherwise.
func (r *Remote) readStream(ctx context.Context, qs []query.Query, frames chan<- wire.StreamItem) error {
	sr, body, err := r.c.openStream(ctx, qs)
	if err != nil {
		return r.wrapErr(err)
	}
	defer body.Close()
	for {
		item, err := sr.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return r.wrapErr(fmt.Errorf("transport: answer stream: %w", err))
		}
		frames <- item
	}
}
