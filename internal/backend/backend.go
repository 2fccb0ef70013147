// Package backend defines the unified query plane: one context-aware
// interface — Query, QueryBatch — over every evaluator the protocol
// has, local or remote. The paper's flow is one exchange (query →
// answer+VO → verify), so the repo exposes it through a single Backend
// interface implemented by
//
//   - Local — one in-process IFMH-tree (*core.Tree),
//   - Sharded — a domain-sharded tree set (*shard.Set): routed by the
//     set's plan, batches dispatched shard-contiguously,
//   - *server.Server — the in-process cloud server, the epoch pointer
//     Swap publishes through; it hands each exchange whole to the one
//     snapshot it loads,
//   - transport.Remote — a vqserve process reached over HTTP, and
//   - Fanout — a front-end composing K single-shard backends (typically
//     Remotes, one vqserve per shard) into one logical database.
//
// Every answer carries the serialized wire bytes — the wire.EncodeIFMH
// payload of a batch item — plus the answering shard and epoch, so
// callers can layer verification, persistence or re-routing uniformly.
// A backend implements one exchange, QueryBatch; its Query is One, a
// batch of one. Functional options replace positional parameters:
// WithWorkers bounds batch concurrency, WithCounter accumulates the
// caller-side cost metrics, and WithVerify checks every answer against
// the owner's published parameters before it is returned, filling
// Answer.Records.
//
// Batches are index-stable: the slices QueryBatch returns are parallel
// to the input. Cancellation is cooperative everywhere: a done context
// stops new work promptly and surfaces ctx.Err() on the items it
// prevented.
package backend

import (
	"context"
	"fmt"

	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
)

// Answer is one query's outcome on any backend: the serialized answer
// bytes (the wire.EncodeIFMH payload of a batch item) plus the
// answering shard and the publication epoch it answered under. Records is
// populated only when the answer was verified (the WithVerify option)
// or decoded by the backend itself; callers that skip verification work
// from Raw. On a failed query Raw and Records are nil and Shard still
// reports the routing choice when one was made — the shard that refused
// — and ShardNone otherwise.
type Answer struct {
	// Raw is the wire-encoded answer (wire.EncodeIFMH). It is read-only
	// and may share its backing array with the other answers of the same
	// exchange (a decoded batch frame is viewed, not copied): whoever
	// keeps an answer beyond the call that returned it keeps a copy.
	Raw []byte
	// Records holds the verified result rows; nil until WithVerify runs.
	Records []record.Record
	// Shard is the answering shard (wire.ShardNone when the backend is
	// unsharded).
	Shard int
	// Epoch is the publication epoch of the bundle that answered; 0 only
	// on a query refused before any bundle did. An answer verifies
	// against exactly one epoch's published parameters; a mismatch
	// against the pinned epoch surfaces as an *EpochError before a
	// misleading verification failure can.
	Epoch uint64
}

// EpochError reports an answer produced under a different publication
// epoch than the one the caller pinned — a server that swapped in a new
// bundle since /params was read (Got > Want), or a stale or forked
// replica still serving an old epoch (Got < Want). The answer itself
// may verify perfectly against its own epoch's parameters; the error
// exists so clients refresh their pinned bundle instead of misreading
// the situation as tampering.
type EpochError struct {
	// Want is the epoch the caller pinned (from /params or PublicParams).
	Want uint64
	// Got is the epoch the answer was produced under.
	Got uint64
	// Shard is the answering shard, wire.ShardNone when unsharded.
	Shard int
}

func (e *EpochError) Error() string {
	dir := "stale"
	if e.Got > e.Want {
		dir = "newer"
	}
	if e.Shard < 0 {
		return fmt.Sprintf("backend: answer from %s epoch %d, client pinned epoch %d; re-read /params", dir, e.Got, e.Want)
	}
	return fmt.Sprintf("backend: shard %d answered from %s epoch %d, client pinned epoch %d; re-read /params", e.Shard, dir, e.Got, e.Want)
}

// Backend is the unified query surface. Implementations answer from
// immutable (or internally synchronized) state and are safe for
// concurrent use.
type Backend interface {
	// Name identifies the evaluator ("ifmh-one", "ifmh-multi").
	Name() string
	// Query answers one query: One(ctx, b, q, opts...), a batch of one,
	// in every backend of this module.
	Query(ctx context.Context, q query.Query, opts ...Option) (Answer, error)
	// QueryBatch answers many queries; both returned slices are parallel
	// to qs. A per-item error never aborts the rest of the batch;
	// indexes a canceled context prevented report ctx.Err().
	QueryBatch(ctx context.Context, qs []query.Query, opts ...Option) ([]Answer, []error)
}

// Option tunes one Query/QueryBatch call.
type Option func(*Call)

// verifyFunc decodes one serialized answer, checks it echoes q and
// verifies it against the owner's published parameters, charging the
// verification cost to ctr. Every failure wraps verify.ErrVerification —
// the bytes are untrusted, so bytes that do not parse are a rejection
// like any other.
type verifyFunc func(q query.Query, raw []byte, ctr *metrics.Counter) ([]record.Record, error)

// WithWorkers bounds the call's worker pool (batch fan-out and batched
// verification); <= 0 means one worker per CPU.
func WithWorkers(n int) Option { return func(c *Call) { c.workers = n } }

// WithCounter accumulates the call's caller-side costs — answer bytes
// and, under WithVerify, hash and signature-verification counts — into
// ctr. The counter is written from the calling goroutine only (batch
// workers merge into it after the fan-out joins), so one counter can be
// reused across sequential calls.
func WithCounter(ctr *metrics.Counter) Option { return func(c *Call) { c.ctr = ctr } }

// WithVerify checks every answer against the owner's published
// parameters before returning it: the raw bytes are decoded, the echoed
// query cross-checked, and verify.Verify must accept. Verified answers
// carry their records; a failed verification surfaces as the item's
// error, wrapping verify.ErrVerification.
func WithVerify(pub verify.PublicParams) Option {
	check := func(q query.Query, raw []byte, ctr *metrics.Counter) ([]record.Record, error) {
		ans, err := wire.DecodeIFMH(raw)
		if err != nil {
			return nil, rejected(err)
		}
		if !query.Equal(q, ans.Query) {
			return nil, errEcho
		}
		if err := verify.Verify(pub, q, ans.Records, &ans.VO, ctr); err != nil {
			return nil, err
		}
		return ans.Records, nil
	}
	return func(c *Call) { c.verify = check }
}

// errEcho rejects an answer to a different query than the one asked.
// Verification runs on the caller's own q, so the echo check guards
// against confused servers, not forgery.
var errEcho = fmt.Errorf("backend: %w: server answered a different query", verify.ErrVerification)

// rejected classes undecodable answer bytes as a verification failure.
func rejected(err error) error {
	return fmt.Errorf("backend: %w: %v", verify.ErrVerification, err)
}
