package front

import (
	"fmt"

	"aqverify/internal/transport"
)

// WriteProm appends the front plane's metric families to a /metrics
// exposition; the transport handler discovers it on the served backend
// (through decorators) and calls it after the tally and cache families.
// Family names are pinned by the golden file in this package's tests:
// renaming one is a dashboard-breaking change, make it deliberately.
func (f *Frontend) WriteProm(p *transport.Prom) {
	snap := f.Snapshot()

	p.Scalar("aqv_front_inflight", "gauge", "Requests currently admitted by the front's gate.", snap.InFlight)
	p.Scalar("aqv_front_inflight_bound", "gauge", "The admission gate's in-flight bound (0 = unbounded).", snap.InFlightBound)
	p.Scalar("aqv_front_shed_total", "counter", "Requests shed by the admission gate (answered 429).", snap.Shed)

	p.Family("aqv_front_requests_total", "counter", "Batch/query exchanges routed, by shard.")
	p.Family("aqv_front_retries_total", "counter", "Failovers after a wholesale replica failure, by shard.")
	p.Family("aqv_front_ejections_total", "counter", "Replica ejections, by shard.")
	p.Family("aqv_front_readmissions_total", "counter", "Replica re-admissions, by shard.")
	for i, sh := range snap.Shards {
		l := shardLabel(i)
		p.Int("aqv_front_requests_total", l, sh.Requests)
		p.Int("aqv_front_retries_total", l, sh.Retries)
		p.Int("aqv_front_ejections_total", l, sh.Ejections)
		p.Int("aqv_front_readmissions_total", l, sh.Readmissions)
	}

	p.Family("aqv_front_replica_up", "gauge", "1 when the replica is routable, 0 while ejected.")
	p.Family("aqv_front_replica_inflight", "gauge", "Exchanges outstanding on the replica.")
	p.Family("aqv_front_replica_epoch", "gauge", "Newest publication epoch the replica has been seen serving.")
	p.Family("aqv_front_replica_epoch_lag", "gauge", "Epochs the replica trails the fleet's newest epoch.")
	p.Family("aqv_front_probe_failures_total", "counter", "Failed health probes, by replica.")
	for i, sh := range snap.Shards {
		for j, r := range sh.Replicas {
			l := append(shardLabel(i), transport.Label{Name: "replica", Value: fmt.Sprint(j)})
			up := int64(0)
			if r.Up {
				up = 1
			}
			p.Int("aqv_front_replica_up", l, up)
			p.Int("aqv_front_replica_inflight", l, r.InFlight)
			p.Int("aqv_front_replica_epoch", l, int64(r.Epoch))
			p.Int("aqv_front_replica_epoch_lag", l, int64(r.EpochLag))
			p.Int("aqv_front_probe_failures_total", l, r.ProbeFails)
		}
	}

	p.Family("aqv_front_request_seconds", "histogram", "Client-observed request latency through the front, by shard.")
	for i, s := range f.sets {
		s.hist.writeProm(p, "aqv_front_request_seconds", shardLabel(i))
	}
}

func shardLabel(i int) []transport.Label {
	return []transport.Label{{Name: "shard", Value: fmt.Sprint(i)}}
}
