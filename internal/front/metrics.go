package front

import (
	"fmt"
	"sync/atomic"
	"time"

	"aqverify/internal/transport"
)

// latencyBuckets are the per-shard request-latency histogram bounds, in
// seconds. Loopback verified queries land in the sub-millisecond
// buckets; WAN deployments and hedge-rescued tails in the middle; the
// top bucket catches anything a deadline should have caught first.
var latencyBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5,
}

// histogram is a fixed-bucket latency histogram with atomic counters —
// the Prometheus histogram shape (cumulative _bucket series plus _sum
// and _count) without a client library.
type histogram struct {
	counts []atomic.Int64 // one per bucket bound; +Inf is implied by count
	count  atomic.Int64
	sumNS  atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(latencyBuckets))}
}

// Observe records one request latency.
func (h *histogram) Observe(d time.Duration) {
	s := d.Seconds()
	for i, ub := range latencyBuckets {
		if s <= ub {
			h.counts[i].Add(1)
		}
	}
	h.count.Add(1)
	h.sumNS.Add(int64(d))
}

// writeProm renders the histogram as one labeled series set.
func (h *histogram) writeProm(p *transport.Prom, name string, labels []transport.Label) {
	for i, ub := range latencyBuckets {
		l := append(append([]transport.Label(nil), labels...),
			transport.Label{Name: "le", Value: fmt.Sprintf("%g", ub)})
		p.Int(name+"_bucket", l, h.counts[i].Load())
	}
	inf := append(append([]transport.Label(nil), labels...), transport.Label{Name: "le", Value: "+Inf"})
	p.Int(name+"_bucket", inf, h.count.Load())
	p.Sample(name+"_sum", labels, time.Duration(h.sumNS.Load()).Seconds())
	p.Int(name+"_count", labels, h.count.Load())
}

// ReplicaStat is one replica's live state in a Snapshot.
type ReplicaStat struct {
	URL        string
	Up         bool  // not ejected
	InFlight   int64 // exchanges outstanding on this replica
	Epoch      uint64
	EpochLag   uint64 // epochs behind the newest any replica serves
	ProbeFails int64  // cumulative failed health probes
}

// ShardStat is one replica set's counter snapshot.
type ShardStat struct {
	Requests         int64 // batch/query exchanges routed to the set
	Streams          int64 // stream exchanges routed to the set
	Hedges           int64 // hedge launches issued
	HedgeWins        int64 // hedges whose answer won the race
	HedgesSuppressed int64 // hedge deadline fired but the budget refused
	Retries          int64 // failovers after a wholesale replica failure
	Ejections        int64 // replicas ejected after consecutive failures
	Readmissions     int64 // ejected replicas recovered by a probe or answer
	Replicas         []ReplicaStat
}

// Snapshot is the front's full gauge state at one instant — the same
// numbers /metrics exports, for programmatic use and for pinning the
// exposition against the driver's own counts in tests.
type Snapshot struct {
	Shed          int64 // requests refused by the admission gate
	InFlight      int64 // requests currently admitted
	InFlightBound int64 // the gate's bound, 0 when unbounded
	Shards        []ShardStat
}

// sum totals one ShardStat counter across shards.
func (s Snapshot) sum(of func(ShardStat) int64) (n int64) {
	for _, sh := range s.Shards {
		n += of(sh)
	}
	return n
}

// Hedges sums hedge launches across shards.
func (s Snapshot) Hedges() int64 { return s.sum(func(sh ShardStat) int64 { return sh.Hedges }) }

// HedgeWins sums won hedge races across shards.
func (s Snapshot) HedgeWins() int64 { return s.sum(func(sh ShardStat) int64 { return sh.HedgeWins }) }

// Ejections sums replica ejections across shards.
func (s Snapshot) Ejections() int64 { return s.sum(func(sh ShardStat) int64 { return sh.Ejections }) }

// Readmissions sums replica re-admissions across shards.
func (s Snapshot) Readmissions() int64 {
	return s.sum(func(sh ShardStat) int64 { return sh.Readmissions })
}
