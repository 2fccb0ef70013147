package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/verify"
)

// TestConcurrentQueries hammers one tree from many goroutines: the delta
// cursor is the only shared mutable state and is mutex-guarded, so every
// concurrent answer must both verify and match the single-threaded
// result. Run with -race to check the synchronization.
func TestConcurrentQueries(t *testing.T) {
	tbl := lineTable(t, 60, 41)
	tree := build1D(t, tbl, verify.MultiSignature)
	pub := tree.Public()

	type job struct {
		q    query.Query
		want []uint64
	}
	rng := rand.New(rand.NewSource(42))
	jobs := make([]job, 50)
	for i := range jobs {
		x := geometry.Point{rng.Float64()*2 - 1}
		q := query.NewTopK(x, 1+rng.Intn(8))
		ans, err := tree.Process(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]uint64, len(ans.Records))
		for j, r := range ans.Records {
			ids[j] = r.ID
		}
		jobs[i] = job{q: q, want: ids}
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs)*8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range jobs {
				j := jobs[(i+worker*7)%len(jobs)]
				ans, err := tree.Process(j.q, nil)
				if err != nil {
					errs <- err
					return
				}
				if err := verify.Verify(pub, j.q, ans.Records, &ans.VO, nil); err != nil {
					errs <- err
					return
				}
				for k, r := range ans.Records {
					if r.ID != j.want[k] {
						errs <- errMismatch
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = errors.New("concurrent result differs from single-threaded result")
