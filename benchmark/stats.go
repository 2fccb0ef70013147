package main

import (
	"math"
	"time"
)

// beyond counts the samples strictly above the nearest-rank p-th
// percentile (stats.Percentile's rule) — the evidence behind a tail
// percentile. The method wants at least ten.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - min(max(int(math.Ceil(p/100*float64(n))), 1), n)
}

// ratio is a/b with 0 for an empty denominator: a layer a workload
// never touches reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// window is one slice of the timed stretch: its actual boundaries
// (sleep overshoot included), the ops that completed inside it, the
// host's slowdown as the probes inside it read it and the divisor that
// takes the window's times to nominal host speed.
type window struct {
	start, end time.Duration
	ops        int
	host       float64
	slowdown   float64
}

func (w window) opsPerS() float64 { return ratio(float64(w.ops), (w.end - w.start).Seconds()) }
