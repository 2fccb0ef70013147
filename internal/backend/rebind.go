package backend

import "aqverify/internal/metrics"

// This file exports the option-surgery helpers a composing layer needs
// to re-dispatch one logical call as several physical ones without
// breaking the WithCounter contract (the caller's counter is written
// from the calling goroutine only). Fanout does this internally per
// shard; internal/front does it across replicas — a hedged request runs
// the same sub-batch on two replicas concurrently, each launch writing
// a private counter, and only the winner's counts merge into the
// caller's.

// ReplaceCounter returns opts with ctr as the call's counter: every
// other option (workers, verification) forwards unchanged. Use a
// private counter per concurrent launch, then fold the winner into
// CounterOf(opts) on the calling goroutine.
func ReplaceCounter(opts []Option, ctr *metrics.Counter) []Option {
	return append(opts[:len(opts):len(opts)], WithCounter(ctr))
}

// CounterOf returns the counter opts install (nil when the call carries
// none; metrics.Counter methods are nil-receiver-safe, so the result
// can be used unconditionally).
func CounterOf(opts []Option) *metrics.Counter {
	return buildOptions(opts).ctr
}
