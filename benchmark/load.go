package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the load generator's view of time, as offsets from the start
// of a measurement; tests drive it with a fake.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

// wallClock is the real clock, counting from base.
type wallClock struct{ base time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.base) }

func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// sample is one completed op.
type sample struct {
	done    time.Duration // completion time
	latency time.Duration // completion - due: an open loop charges a stall to every op it delays
	late    time.Duration // start - due: how far behind schedule the generator ran (0 on a closed loop)
	bytes   int           // answer+VO payload bytes received
	answers int           // verified answers the op returned
	err     error

	slowdown float64 // of the host, in the window the op completed in; measure fills it
}

// opFunc issues op i on load goroutine w and reports the payload bytes
// received and the verified answers returned.
type opFunc func(ctx context.Context, w int, i int64) (bytes, answers int, err error)

// load is a load shape: clients goroutines, each with one op in flight.
// With rate > 0 the loop is open — op i is due i/rate after the start
// whatever happened to the ops before it, and its latency counts from
// that due time. With rate == 0 the loop is closed: a client's next op
// is due the moment its previous one completes. With a prober, client 0
// probes the host between two of its ops every probeEvery: on a closed
// loop of one client the stack is idle meanwhile, on the open loop the
// other client takes the ops that fall due.
type load struct {
	clients int
	rate    float64
	probe   *prober
}

// run drives op until the clock reaches until (open loop: until no
// further op is due before it) or ctx ends, and returns each
// goroutine's samples.
func (l load) run(ctx context.Context, clk clock, until time.Duration, op opFunc) [][]sample {
	start := clk.Now()
	var cursor atomic.Int64
	out := make([][]sample, l.clients)
	var wg sync.WaitGroup
	for w := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if w == 0 && l.probe != nil && clk.Now()-l.probe.last >= probeEvery {
					l.probe.sample(clk)
				}
				i := cursor.Add(1) - 1
				due := clk.Now()
				if l.rate > 0 {
					due = start + time.Duration(float64(i)/l.rate*float64(time.Second))
				}
				if due >= until {
					return
				}
				clk.SleepUntil(due)
				began := clk.Now()
				bytes, answers, err := op(ctx, w, i)
				end := clk.Now()
				out[w] = append(out[w], sample{
					done: end, latency: end - due, late: began - due,
					bytes: bytes, answers: answers, err: err,
				})
			}
		}()
	}
	wg.Wait()
	return out
}
