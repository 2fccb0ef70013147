package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// its Request; Parent is the span that caused this one (0 for an op's
// root span). Times are nanoseconds since the run's base instant.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Request uint64 `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer keeps one goroutine's spans in memory; they are merged and
// written out when the run ends. A nil *tracer records nothing, so the
// untraced path calls the same code.
type tracer struct {
	base   time.Time
	next   uint64 // next span id; goroutines interleave by stride
	stride uint64
	spans  []span
}

// newTracers returns one tracer per load goroutine with disjoint id
// sequences (w+1, w+1+n, ...; 0 stays "no parent").
func newTracers(base time.Time, n int) []*tracer {
	ts := make([]*tracer, n)
	for w := range ts {
		ts[w] = &tracer{base: base, next: uint64(w + 1), stride: uint64(n)}
	}
	return ts
}

// begin opens a span and returns its id.
func (t *tracer) begin(parent, request uint64, name string) uint64 {
	if t == nil {
		return 0
	}
	id := t.next
	t.next += t.stride
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name,
		Start: int64(time.Since(t.base))})
	return id
}

// end closes the span begin returned. Spans close in LIFO order, so the
// open span is found from the tail.
func (t *tracer) end(id uint64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.base))
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].ID == id {
			t.spans[i].End = now
			return
		}
	}
}

// mergeSpans concatenates the goroutines' spans in start order.
func mergeSpans(ts []*tracer) []span {
	var all []span
	for _, t := range ts {
		all = append(all, t.spans...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its direct children cover (overlapping children are
// counted once, children are clipped to the parent).
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// stageStat aggregates the spans that share a name.
type stageStat struct {
	count     int
	totalNS   int64
	selfNS    int64
	durations []float64 // ns, in span order
}

// stageStats groups spans by name.
func stageStats(spans []span) map[string]*stageStat {
	self := selfTimes(spans)
	out := make(map[string]*stageStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &stageStat{}
			out[s.Name] = st
		}
		st.count++
		st.totalNS += s.End - s.Start
		st.selfNS += self[s.ID]
		st.durations = append(st.durations, float64(s.End-s.Start))
	}
	return out
}

// reconcileShare is the stage sum over the end-to-end number: the time
// the root spans' direct children account for, divided by the root
// spans' own time. A run whose stages do not add up to its ops (outside
// [0.9, 1.1]) is rejected.
func reconcileShare(spans []span, root string) float64 {
	roots := make(map[uint64]bool)
	var rootNS, childNS int64
	for _, s := range spans {
		if s.Name == root {
			roots[s.ID] = true
			rootNS += s.End - s.Start
		}
	}
	for _, s := range spans {
		if roots[s.Parent] {
			childNS += s.End - s.Start
		}
	}
	return ratio(float64(childNS), float64(rootNS))
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
