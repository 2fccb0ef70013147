package backend

// Epoch and Epochs answer what a host needs to know about whatever it
// wraps, for any backend, however decorated: each is read off the first
// backend down the Inner chain that reports it, at call time — /params,
// /stats, /metrics and the cache's pin ask per request and never hold
// on to the result.

// Epoch returns b's live publication epoch; 0 means b reports none.
func Epoch(b any) uint64 {
	if s, ok := Find[interface{ Epoch() uint64 }](b); ok {
		return s.Epoch()
	}
	return 0
}

// Epochs returns b's per-shard epochs in shard order — the length is
// the shard count — nil when it is unsharded.
func Epochs(b any) []uint64 {
	if s, ok := Find[interface{ Epochs() []uint64 }](b); ok {
		return s.Epochs()
	}
	return nil
}

// Find locates an optional surface T in a decorated stack: b itself, or
// the first backend down its Inner chain that has it. Decorators expose
// what they wrap through Inner() Backend instead of re-exporting its
// methods, so hosts keep finding the admission gate, the gauges and the
// epochs however the serving stack is composed.
func Find[T any](b any) (T, bool) {
	for b != nil {
		if t, ok := b.(T); ok {
			return t, true
		}
		in, ok := b.(interface{ Inner() Backend })
		if !ok {
			break
		}
		b = in.Inner()
	}
	var zero T
	return zero, false
}
