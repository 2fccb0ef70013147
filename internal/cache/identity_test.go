package cache_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"regexp"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/cache"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/shard"
	"aqverify/internal/transport"
	"aqverify/internal/verify"
)

// identityQueries builds the probe set: routable queries spread across
// the domain, a query landing exactly on the first shard cut (owned by
// the right-hand shard under the exact-rational tie-break), and an
// out-of-domain query that single trees refuse and routers report
// unroutable.
func identityQueries(dom geometry.Box, plan *shard.Plan) []query.Query {
	qs := spreadQueries(dom, 8)
	if plan != nil {
		qs = append(qs, query.NewTopK(geometry.Point{plan.Boxes[0].Hi[plan.Axis]}, 3))
	}
	qs = append(qs, query.NewTopK(geometry.Point{dom.Hi[0] + 10}, 3))
	return qs
}

// checkIdentity asserts the cache is answer-invisible on one surface:
// every query answered twice through the cache (miss, then hit) matches
// the uncached backend byte for byte — outcome, wire bytes, shard
// attribution, epoch, verified records — and the batch entry point
// agrees with the uncached batch.
func checkIdentity(t *testing.T, surface string, uncached backend.Backend, cached *cache.Cache, pub verify.PublicParams, qs []query.Query) {
	t.Helper()
	ctx := context.Background()
	withVerify := backend.WithVerify(pub)

	want := make([]backend.Answer, len(qs))
	wantErr := make([]error, len(qs))
	for i, q := range qs {
		want[i], wantErr[i] = uncached.Query(ctx, q, withVerify)
	}

	// errText canonicalizes positional indexes in error messages: the
	// wire layer's "refused query %d" names the item's position in its
	// own exchange, and the cache legitimately re-batches misses into a
	// smaller sub-exchange.
	qIdx := regexp.MustCompile(`query \d+`)
	errText := func(err error) string { return qIdx.ReplaceAllString(err.Error(), "query #") }

	match := func(want []backend.Answer, wantErr []error, pass string, i int, ans backend.Answer, err error) {
		t.Helper()
		if (err == nil) != (wantErr[i] == nil) {
			t.Fatalf("%s %s query %d: err %v, uncached %v", surface, pass, i, err, wantErr[i])
		}
		if err != nil {
			if errText(err) != errText(wantErr[i]) {
				t.Fatalf("%s %s query %d: err %q, uncached %q", surface, pass, i, err, wantErr[i])
			}
			if ans.Shard != want[i].Shard {
				t.Fatalf("%s %s query %d: failed with shard %d, uncached %d", surface, pass, i, ans.Shard, want[i].Shard)
			}
			return
		}
		if !bytes.Equal(ans.Raw, want[i].Raw) {
			t.Fatalf("%s %s query %d: bytes differ from uncached", surface, pass, i)
		}
		if ans.Shard != want[i].Shard || ans.Epoch != want[i].Epoch {
			t.Fatalf("%s %s query %d: shard/epoch %d/%d, uncached %d/%d",
				surface, pass, i, ans.Shard, ans.Epoch, want[i].Shard, want[i].Epoch)
		}
		if len(ans.Records) != len(want[i].Records) {
			t.Fatalf("%s %s query %d: %d records, uncached %d", surface, pass, i, len(ans.Records), len(want[i].Records))
		}
		for j := range ans.Records {
			if ans.Records[j].ID != want[i].Records[j].ID {
				t.Fatalf("%s %s query %d: record %d differs", surface, pass, i, j)
			}
		}
	}

	for _, name := range []string{"miss", "hit"} {
		for i, q := range qs {
			ans, err := cached.Query(ctx, q, withVerify)
			match(want, wantErr, name, i, ans, err)
		}
	}

	// The batch entry point compares against the uncached batch, so it
	// is held to its own surface's exact wire behavior.
	wantB, wantBErr := uncached.QueryBatch(ctx, qs, withVerify)
	answers, errs := cached.QueryBatch(ctx, qs, withVerify, backend.WithWorkers(3))
	for i := range qs {
		match(wantB, wantBErr, "batch", i, answers[i], errs[i])
	}
}

// TestCachedEqualsUncached runs the identity battery over all five
// backend surfaces in both signing modes, refused and unroutable
// queries included — they must pass through uncached with shard
// attribution intact — plus the on-cut shard query.
func TestCachedEqualsUncached(t *testing.T) {
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		single := outsrc(t, 80, mode)
		shardedRes := outsrc(t, 80, mode, build.WithShards(3, 0))
		dom := single.Tree.Domain()

		// Local tree.
		lb := local(t, single.Tree)
		c, err := cache.Wrap(lb)
		if err != nil {
			t.Fatal(err)
		}
		checkIdentity(t, "local/"+lb.Name(), lb, c, single.Public, identityQueries(dom, nil))

		// Shard set.
		sharded, err := backend.NewSharded(shardedRes.Set)
		if err != nil {
			t.Fatal(err)
		}
		if c, err = cache.Wrap(sharded); err != nil {
			t.Fatal(err)
		}
		checkIdentity(t, "sharded/"+sharded.Name(), sharded, c, shardedRes.Public, identityQueries(dom, &shardedRes.Plan))

		// In-process server (hosting the sharded set, the richer case).
		srv := serve(t, sharded)
		if c, err = cache.Wrap(srv); err != nil {
			t.Fatal(err)
		}
		checkIdentity(t, "server/"+srv.Name(), srv, c, shardedRes.Public, identityQueries(dom, &shardedRes.Plan))

		// HTTP remote.
		hd, err := transport.NewIFMHHandler(serve(t, lb), single.Public)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(hd)
		remoteU, err := transport.DialRemote(ts.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		remoteC, err := transport.DialRemote(ts.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c, err = cache.Wrap(remoteC); err != nil {
			t.Fatal(err)
		}
		checkIdentity(t, "remote/"+remoteU.Name(), remoteU, c, single.Public, identityQueries(dom, nil))
		ts.Close()

		// K-process fanout.
		urls := make([]string, shardedRes.Set.NumShards())
		var shardServers []*httptest.Server
		for i, tree := range shardedRes.Set.Trees {
			shd, err := transport.NewIFMHHandler(serve(t, local(t, tree)), tree.Public())
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(shd)
			shardServers = append(shardServers, ts)
			urls[i] = ts.URL
		}
		fanU, _, err := transport.DialFanout(urls, nil)
		if err != nil {
			t.Fatal(err)
		}
		fanC, _, err := transport.DialFanout(urls, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c, err = cache.Wrap(fanC); err != nil {
			t.Fatal(err)
		}
		checkIdentity(t, "fanout/"+fanU.Name(), fanU, c, shardedRes.Public, identityQueries(dom, &shardedRes.Plan))
		for _, ts := range shardServers {
			ts.Close()
		}
	}
}
