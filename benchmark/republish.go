package main

import (
	"context"
	"fmt"

	"aqverify/internal/build"
)

// republish runs one cycle of the republish workload, one span per
// public call: the owner applies an update, an insert and a delete
// (build.Apply), saves and reopens the new epoch (artifact.Save,
// artifact.Open), publishes it (server.Server.Swap); the client re-pins
// (Refresh) and verifies one top-k, one range and one kNN answer at the
// new epoch.
func (s *system) republish(ctx context.Context, in *inputs, c *client, tr *tracer, i int64) (bytes, answers int, err error) {
	o := s.owner
	req := uint64(i) + 1
	root := tr.begin(0, req, "client.op")
	defer tr.end(root)

	sp := tr.begin(root, req, "build.apply")
	next, err := build.Apply(ctx, o.cur, o.muts.next()...)
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	o.cur = next
	o.cycle++

	b, opened, err := o.publish(tr, root, req)
	if err != nil {
		return 0, 0, err
	}
	sp = tr.begin(root, req, "server.swap")
	err = o.srv.Swap(b)
	tr.end(sp)
	if err != nil {
		opened.Close()
		return 0, 0, err
	}
	// The one client is idle during the swap, so nothing still reads
	// the previous epoch's mapping.
	o.opened.Close()
	o.opened = opened

	first := tr.begin(root, req, "republish.first_answer")
	sp = tr.begin(first, req, "transport.refresh")
	epoch, err := s.remote.Client().Refresh(ctx)
	tr.end(sp)
	if err == nil && epoch != next.Public.Epoch {
		err = fmt.Errorf("server advertises epoch %d after publishing epoch %d", epoch, next.Public.Epoch)
	}
	if err != nil {
		tr.end(first)
		return 0, 0, err
	}
	c.pub = next.Public // the owner's republished parameters

	// Three consecutive queries of the mixed sequence are one top-k, one
	// range and one kNN. The first closes the first-answer span; the
	// other two hang off the op itself.
	lo := int(3*i) % (len(in.mixed) - 2)
	lo -= lo % 3
	for k := 0; k < 3; k++ {
		qs, parent := in.mixed[lo+k:lo+k+1], root
		if k == 0 {
			parent = first
		}
		got, n, err := c.call(ctx, qs, tr, parent, req)
		if k == 0 {
			tr.end(first)
		}
		bytes += n
		if err != nil {
			return bytes, answers, fmt.Errorf("epoch %d, %v: %w", epoch, qs[0], err)
		}
		answers++
		c.checks = append(c.checks, answered{tbl: next.Tree.Table(), q: qs[0], recs: got[0].Records})
	}
	return bytes, answers, nil
}
