package cache

import (
	"bytes"
	"context"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/core"
	"aqverify/internal/server"
)

// TestPermLRUUnit pins the permutation tier's contract in isolation:
// epoch is part of the key, hits promote, capacity evicts from the cold
// end, and the sink sees every event.
func TestPermLRUUnit(t *testing.T) {
	st := server.NewTally(0)
	pl := NewPermLRU(2, st)

	pl.Put(3, 1, []int{2, 0, 1})
	if _, ok := pl.Get(3, 2); ok {
		t.Fatal("epoch 2 lookup served the epoch-1 permutation")
	}
	p, ok := pl.Get(3, 1)
	if !ok || len(p) != 3 || p[0] != 2 {
		t.Fatalf("epoch-1 lookup: ok %v perm %v", ok, p)
	}
	cs := st.CacheStats()
	if cs.PermHits != 1 || cs.PermMisses != 1 {
		t.Fatalf("after one miss + one hit: %+v", cs)
	}

	// (3,1) was just used; inserting two more evicts the colder of them
	// first, never the hot entry.
	pl.Put(4, 1, []int{0})
	pl.Put(3, 1, []int{2, 0, 1}) // refresh
	pl.Put(5, 1, []int{1})       // evicts (4,1)
	if pl.Len() != 2 {
		t.Fatalf("Len %d over capacity 2", pl.Len())
	}
	if _, ok := pl.Get(4, 1); ok {
		t.Fatal("cold entry survived the eviction")
	}
	if _, ok := pl.Get(3, 1); !ok {
		t.Fatal("hot entry was evicted")
	}
	if cs = st.CacheStats(); cs.PermEvictions != 1 {
		t.Fatalf("evictions %d, want 1", cs.PermEvictions)
	}

	if NewPermLRU(0, nil).perms.cap != DefaultPermCapacity {
		t.Fatal("capacity < 1 did not fall back to the default")
	}
	NewPermLRU(1, nil).Put(0, 1, nil) // nil sink must not panic
}

// TestPermEpochKeyingRegression is the regression the (subdomain,
// epoch) key exists for: a mutation batch reorders subdomain lists
// without changing their ids, so a permutation cache shared across the
// tree lineage — exactly how a server keeps it warm across Swap — must
// never let an epoch-1 permutation answer an epoch-2 query. Byte
// identity against a cache-free epoch-2 tree plus verification against
// the epoch-2 bundle pins it.
func TestPermEpochKeyingRegression(t *testing.T) {
	ctx := context.Background()
	res1 := outsrc(t, 80, core.OneSignature) // 1-D default: delta mode
	st := server.NewTally(0)
	pl := NewPermLRU(0, st)
	res1.Tree.SetPermCache(pl)

	qs := spreadQueries(res1.Tree.Domain(), 8)
	b1, err := backend.NewLocal(res1.Tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs { // populate epoch-1 permutations
		if _, err := b1.Query(ctx, q, backend.WithVerify(res1.Public)); err != nil {
			t.Fatal(err)
		}
	}
	if pl.Len() == 0 {
		t.Fatal("delta-mode queries did not populate the permutation cache")
	}

	res2 := nextEpoch(t, res1)
	if e := res2.Tree.Epoch(); e != 2 {
		t.Fatalf("mutated tree at epoch %d, want 2", e)
	}
	b2, err := backend.NewLocal(res2.Tree)
	if err != nil {
		t.Fatal(err)
	}
	// Capture the epoch-2 truth before the shared cache is installed.
	bare := make([]backend.Answer, len(qs))
	for i, q := range qs {
		if bare[i], err = b2.Query(ctx, q, backend.WithVerify(res2.Public)); err != nil {
			t.Fatal(err)
		}
	}

	// Install the still-warm epoch-1 cache on the epoch-2 tree and
	// re-run: every answer must be byte-identical and verify — a stale
	// permutation reused across the epoch would break both — and the
	// misses prove the epoch-1 entries were never consulted as hits.
	res2.Tree.SetPermCache(pl)
	preMisses := st.CacheStats().PermMisses
	for i, q := range qs {
		ans, err := b2.Query(ctx, q, backend.WithVerify(res2.Public))
		if err != nil {
			t.Fatalf("epoch-2 query %d through the shared cache: %v", i, err)
		}
		if !bytes.Equal(ans.Raw, bare[i].Raw) {
			t.Fatalf("epoch-2 query %d: bytes differ with the shared cache installed", i)
		}
		if ans.Records == nil {
			t.Fatalf("epoch-2 query %d did not verify", i)
		}
	}
	if post := st.CacheStats().PermMisses; post == preMisses {
		t.Fatal("epoch-2 queries hit the cache without a single miss: epoch-1 permutations were reused")
	}

	// The lineage's old epoch stays intact in the shared cache: the
	// epoch-1 tree keeps hitting its own entries.
	preHits := st.CacheStats().PermHits
	if _, err := b1.Query(ctx, qs[0], backend.WithVerify(res1.Public)); err != nil {
		t.Fatal(err)
	}
	if st.CacheStats().PermHits == preHits {
		t.Fatal("epoch-1 re-query missed its own warm permutations")
	}
}
