package server_test

import (
	"context"
	"sync/atomic"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/geometry"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/wire"
)

// parked is a hosted stub stamped with one epoch: every answer carries
// it, and the second evaluation signals reached and waits for resume, so
// a test can land a Swap while an exchange is half done.
type parked struct {
	epoch   uint64
	calls   atomic.Int32
	reached chan struct{}
	resume  chan struct{}
}

func (p *parked) Name() string  { return "parked" }
func (p *parked) Epoch() uint64 { return p.epoch }

func (p *parked) process(query.Query, *metrics.Counter) (int, uint64, []byte, error) {
	if p.reached != nil && p.calls.Add(1) == 2 {
		close(p.reached)
		<-p.resume
	}
	return wire.ShardNone, p.epoch, []byte{byte(p.epoch)}, nil
}

func (p *parked) Query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	return backend.One(ctx, p, q, opts...)
}

func (p *parked) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	return backend.DriveBatch(ctx, p.process, qs, opts...)
}

// TestExchangeSeesOneEpoch: the server pins its snapshot per exchange,
// not per query. A batch that is half answered when a Swap lands
// finishes on the epoch it started on, item for item; the
// next exchange is the new epoch's.
func TestExchangeSeesOneEpoch(t *testing.T) {
	qs := make([]query.Query, 6)
	for i := range qs {
		qs[i] = query.NewTopK(geometry.Point{0}, 1+i)
	}
	ctx := context.Background()
	serial := backend.WithWorkers(1) // items in order: one answered, one parked, four to go
	for _, tc := range []struct {
		name     string
		exchange func(b backend.Backend) []uint64
	}{
		{"QueryBatch", func(b backend.Backend) []uint64 {
			epochs := make([]uint64, len(qs))
			answers, _ := b.QueryBatch(ctx, qs, serial)
			for i, a := range answers {
				epochs[i] = a.Epoch
			}
			return epochs
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := &parked{epoch: 1, reached: make(chan struct{}), resume: make(chan struct{})}
			srv := newServer(t, old)
			got := make(chan []uint64)
			go func() { got <- tc.exchange(srv) }()
			<-old.reached
			if err := srv.Swap(&parked{epoch: 2}); err != nil {
				t.Fatal(err)
			}
			close(old.resume)
			for i, e := range <-got {
				if e != 1 {
					t.Errorf("item %d of the exchange in flight answered from epoch %d, want the 1 it started on", i, e)
				}
			}
			for i, e := range tc.exchange(srv) {
				if e != 2 {
					t.Errorf("item %d of the next exchange answered from epoch %d, want 2", i, e)
				}
			}
		})
	}
}
