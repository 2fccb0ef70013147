package main

import (
	"crypto/ed25519"
	"fmt"
	"math"
	"syscall"
	"time"

	"aqverify/internal/stats"
)

// The sandbox is a few vCPUs of a shared host, and what its neighbours
// do moves every time the stack can be measured by: for minutes at a
// stretch the same work costs 1.3 to 1.6 times the CPU time and the wall
// time it costs when the host is quiet (once 2.9 times), on every
// workload at once. No run length the time cap allows averages that
// out, and no statistic over one run's samples steps over it, because
// the whole run sits inside the episode.
//
// So the benchmark measures the host while it measures the stack. A
// probe is a fixed piece of work from outside the repository's code —
// ed25519 verifications and pipe round trips: general integer code and
// the kernel's system-call path, which is what the stack runs — timed
// between ops every probeEvery. Its time over its time on a quiet host
// is the host's slowdown at that moment, and every time the benchmark
// reports is divided by the slowdown measured while it was taken: the
// reported numbers are the stack's at nominal host speed. SHA-256 (the
// SHA extensions keep it latency-bound) and a pointer chase through
// memory were tried as probes too and follow the episodes a quarter as
// far as the stack does; these two follow them as far.
const (
	nominalVerifyNS = 50_000 // one ed25519.Verify of a 32-byte message on a quiet host
	nominalPipeNS   = 600    // one pipe write+read round trip on a quiet host
	probeVerifies   = 20     // about 1 ms
	probePipeTrips  = 1500   // about 1 ms
	// The probes take 4 % of client 0's time.
	probeEvery = 50 * time.Millisecond
)

// probeSample is one probe: when it ran, on the measuring clock, and
// the slowdown it read.
type probeSample struct {
	start, end time.Duration
	slowdown   float64
}

// prober runs probes. It is used from one goroutine at a time.
type prober struct {
	pub      ed25519.PublicKey
	msg, sig []byte
	r, w     int // a pipe, blocking: a byte is always there to read
	samples  []probeSample
	last     time.Duration // end of the latest sample
}

func newProber() (*prober, error) {
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	p := &prober{pub: priv.Public().(ed25519.PublicKey), msg: make([]byte, 32)}
	p.sig = ed25519.Sign(priv, p.msg)
	var fds [2]int
	if err := syscall.Pipe2(fds[:], syscall.O_CLOEXEC); err != nil { // not for the stack's children
		return nil, fmt.Errorf("host probe pipe: %w", err)
	}
	p.r, p.w = fds[0], fds[1]
	return p, nil
}

func (p *prober) close() {
	_ = syscall.Close(p.r) // nothing is buffered in the pipe
	_ = syscall.Close(p.w)
}

// once runs one probe and returns the slowdown it read: the geometric
// mean of the two halves' times over their nominal times.
func (p *prober) once() float64 {
	start := time.Now()
	for i := 0; i < probeVerifies; i++ {
		if !ed25519.Verify(p.pub, p.msg, p.sig) {
			panic("benchmark: the host probe's own signature does not verify")
		}
	}
	mid := time.Now()
	one := []byte{1}
	for i := 0; i < probePipeTrips; i++ {
		// A failed round trip only shortens the probe, which reads as a
		// fast host; on a pipe the process holds both ends of, none fails.
		_, _ = syscall.Write(p.w, one)
		_, _ = syscall.Read(p.r, one)
	}
	end := time.Now()
	verify := float64(mid.Sub(start).Nanoseconds()) / probeVerifies / nominalVerifyNS
	pipe := float64(end.Sub(mid).Nanoseconds()) / probePipeTrips / nominalPipeNS
	return math.Sqrt(verify * pipe)
}

// burst is the mean of n probes back to back: the host's slowdown
// around a step that cannot be probed from inside, such as a set-up.
func (p *prober) burst(n int) float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = p.once()
	}
	return stats.Mean(s)
}

// sample runs one probe and keeps it with its times on clk.
func (p *prober) sample(clk clock) {
	s := probeSample{start: clk.Now()}
	s.slowdown = p.once()
	s.end = clk.Now()
	p.samples = append(p.samples, s)
	p.last = s.end
}

// windowSlowdowns reduces the probes to one slowdown per window: the
// mean of the probes that began inside it. The mean, not the median,
// because the neighbours come and go within milliseconds and an op
// feels their time average: a host that is 1.6 times slower 40 % of the
// time reads 1 at the median and slows the stack by 1.24 (on forty runs
// the mean left between half and all of the spread the median left). A
// window without a probe (an op outlasted it) takes the nearest earlier
// window's, else the nearest later one's; with no probe at all every
// window reads 1, and the times stay as measured. busy[k] is the time
// the probes themselves took in window k.
func windowSlowdowns(samples []probeSample, ws []window) (slow []float64, busy []time.Duration) {
	slow, busy = make([]float64, len(ws)), make([]time.Duration, len(ws))
	per := make([][]float64, len(ws))
	for _, s := range samples {
		for k, w := range ws {
			if s.start >= w.start && s.start < w.end {
				per[k] = append(per[k], s.slowdown)
				busy[k] += s.end - s.start
				break
			}
		}
	}
	for k := range ws {
		if len(per[k]) > 0 {
			slow[k] = stats.Mean(per[k])
		} else if k > 0 {
			slow[k] = slow[k-1]
		}
	}
	for k := len(ws) - 1; k >= 0; k-- {
		if slow[k] == 0 {
			slow[k] = 1
			if k+1 < len(ws) {
				slow[k] = slow[k+1]
			}
		}
	}
	return slow, busy
}
