package backend

import (
	"aqverify/internal/metrics"
	"aqverify/internal/pool"
	"aqverify/internal/query"
	"aqverify/internal/record"
)

// CallInfo exposes one call's resolved options to decorators that sit
// outside the drivers — the cache tier needs to know whether the caller
// asked for verification, where its costs accumulate, and how wide its
// worker pool is, without the options struct leaving the package. The
// accounting methods write the caller's WithCounter counter, so they
// inherit its contract: call them from the calling goroutine only (or
// after a fan-out has joined).
type CallInfo struct {
	o options
}

// ResolveOptions folds a call's options once, for repeated inspection.
func ResolveOptions(opts ...Option) CallInfo {
	return CallInfo{o: buildOptions(opts)}
}

// Verifies reports whether the call includes WithVerify.
func (ci CallInfo) Verifies() bool { return ci.o.verify != nil }

// Workers returns the bounded pool size the options request for n
// items, as the batch drivers would size it.
func (ci CallInfo) Workers(n int) int { return pool.Workers(ci.o.workers, n) }

// AddBytes records n answer bytes into the call's WithCounter counter.
func (ci CallInfo) AddBytes(n uint64) { ci.o.ctr.AddBytes(n) }

// AddCost folds an accumulated cost into the call's WithCounter
// counter.
func (ci CallInfo) AddCost(c metrics.Counter) { ci.o.ctr.Add(c) }

// VerifyRaw decodes and verifies one serialized answer as the call's
// WithVerify option prescribes, accumulating the verification cost into
// ctr. It must not be called when Verifies() is false.
func (ci CallInfo) VerifyRaw(q query.Query, raw []byte, ctr *metrics.Counter) ([]record.Record, error) {
	return ci.o.verify(q, raw, ctr)
}
