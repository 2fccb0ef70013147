package artifact

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/mhtree"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/server"
	"aqverify/internal/sig"
	"aqverify/internal/verify"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
)

func testSpec(t testing.TB, n int, seed int64) build.Spec {
	t.Helper()
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: n, Seed: seed, Dist: workload.Gaussian})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{Rand: sig.DeterministicRand(7)})
	if err != nil {
		t.Fatal(err)
	}
	return build.Spec{Table: tbl, Template: funcs.AffineLine(0, 1), Domain: dom, Signer: signer}
}

func sampleQueries(dom geometry.Box, count int) []query.Query {
	qs := make([]query.Query, 0, 2*count)
	for i := 0; i < count; i++ {
		x := dom.Lo[0] + (dom.Hi[0]-dom.Lo[0])*float64(i+1)/float64(count+1)
		qs = append(qs, query.NewTopK(geometry.Point{x}, 1+i%5))
		qs = append(qs, query.NewRange(geometry.Point{x}, -2, 2))
	}
	return qs
}

func treesOf(t *testing.T, r *build.Result) []*core.Tree {
	t.Helper()
	if r.Tree != nil {
		return []*core.Tree{r.Tree}
	}
	if r.Set != nil {
		return r.Set.Trees
	}
	t.Fatal("result holds no IFMH product")
	return nil
}

// answerBytes processes every in-domain query on the tree and returns
// the serialized answers.
func answerBytes(t *testing.T, tr *core.Tree, qs []query.Query) [][]byte {
	t.Helper()
	out := make([][]byte, 0, len(qs))
	for _, q := range qs {
		if !tr.Domain().Contains(q.X) {
			out = append(out, nil)
			continue
		}
		ans, err := tr.Process(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, wire.EncodeIFMH(ans))
	}
	return out
}

// TestSaveOpenIdentity is the keystone: for both signing modes and both
// product shapes, a tree opened from an artifact must
// fingerprint identically to the one that was saved and answer every
// query byte-for-byte the same, with every answer verifying against the
// loaded bundle.
func TestSaveOpenIdentity(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 60, 3)
	qs := sampleQueries(spec.Domain, 12)

	cases := []struct {
		name string
		opts []build.Option
	}{
		{"one/delta", []build.Option{build.WithMode(verify.OneSignature), build.WithShuffle(3)}},
		{"multi/delta", []build.Option{build.WithMode(verify.MultiSignature), build.WithShuffle(3)}},
		{"one/sharded", []build.Option{build.WithMode(verify.OneSignature), build.WithShuffle(3), build.WithShards(3, 0)}},
		{"multi/sharded", []build.Option{build.WithMode(verify.MultiSignature), build.WithShuffle(3), build.WithShards(3, 0)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := build.Outsource(ctx, spec, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			info, err := Save(dir, res)
			if err != nil {
				t.Fatal(err)
			}
			if info.Epoch != 1 || info.Mode != res.Public.Mode {
				t.Fatalf("info epoch %d mode %v", info.Epoch, info.Mode)
			}
			a, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			if a.Hash != info.Hash {
				t.Fatalf("open hash %x != save hash %x", a.Hash, info.Hash)
			}
			built, loaded := treesOf(t, res), treesOf(t, a.Result)
			if len(built) != len(loaded) {
				t.Fatalf("saved %d trees, loaded %d", len(built), len(loaded))
			}
			pub := a.Result.Public
			for i := range built {
				if built[i].Fingerprint() != loaded[i].Fingerprint() {
					t.Fatalf("tree %d: fingerprint differs after load", i)
				}
				ba, la := answerBytes(t, built[i], qs), answerBytes(t, loaded[i], qs)
				for k := range ba {
					if !bytes.Equal(ba[k], la[k]) {
						t.Fatalf("tree %d: answer %d differs after load", i, k)
					}
				}
				for _, q := range qs {
					if !loaded[i].Domain().Contains(q.X) {
						continue
					}
					ans, err := loaded[i].Process(q, nil)
					if err != nil {
						t.Fatal(err)
					}
					if err := verify.Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
						t.Fatalf("tree %d: loaded answer fails verification: %v", i, err)
					}
				}
			}
			// A loaded tree is serve-only: the mutation plane refuses it.
			if _, err := build.Apply(ctx, a.Result, build.Delete(0)); err == nil {
				t.Fatal("Apply accepted a loaded artifact")
			} else if !strings.Contains(err.Error(), "serve-only") {
				t.Fatalf("Apply refusal does not name serve-only: %v", err)
			}
		})
	}
}

// TestOpenShard opens each shard of a set artifact individually and
// checks it matches the corresponding tree of the full open, serves
// that shard's sub-box, and advertises the whole set's artifact hash.
func TestOpenShard(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 60, 5)
	res, err := build.Outsource(ctx, spec, build.WithMode(verify.OneSignature), build.WithShuffle(5), build.WithShards(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	info, err := Save(dir, res)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range res.Set.Trees {
		a, err := OpenShard(dir, i)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if a.Result.Tree == nil || !a.Result.Tree.Domain().Equal(res.Plan.Boxes[i]) {
			t.Fatalf("shard %d: opened tree does not serve the plan's sub-box", i)
		}
		if a.Hash != info.Hash {
			t.Fatalf("shard %d advertises hash %x, set hash %x", i, a.Hash, info.Hash)
		}
		if a.Result.Tree.Fingerprint() != want.Fingerprint() {
			t.Fatalf("shard %d: fingerprint differs", i)
		}
		a.Close()
	}
	if _, err := OpenShard(dir, 3); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	// OpenShard refuses a tree artifact.
	single, err := build.Outsource(ctx, spec, build.WithShuffle(5))
	if err != nil {
		t.Fatal(err)
	}
	sdir := t.TempDir()
	if _, err := Save(sdir, single); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShard(sdir, 0); err == nil {
		t.Fatal("OpenShard accepted a tree artifact")
	}
}

// TestSaveRefusals: no result and one shard re-opened from a set have
// no artifact form.
func TestSaveRefusals(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 30, 1)
	if _, err := Save(t.TempDir(), nil); err == nil {
		t.Fatal("nil result accepted")
	}
	set, err := build.Outsource(ctx, spec, build.WithShuffle(1), build.WithShards(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Save(dir, set); err != nil {
		t.Fatal(err)
	}
	one, err := OpenShard(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	if _, err := Save(t.TempDir(), one.Result); err == nil {
		t.Fatal("one shard of a set accepted as a whole publication")
	}
}

// TestApplyLineage saves every epoch of a mutation lineage and checks
// each one loads back at its own epoch with the original fingerprint —
// the epoch log in durable form.
func TestApplyLineage(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 40, 9)
	res, err := build.Outsource(ctx, spec, build.WithMode(verify.MultiSignature), build.WithShuffle(9))
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	lineage := []*build.Result{res}
	muts := [][]build.Mutation{
		{build.Insert(record.Record{ID: 900001, Attrs: []float64{1.25, -0.5}})},
		{build.Delete(3), build.Update(5, record.Record{ID: spec.Table.Records[5].ID, Attrs: []float64{-0.75, 0.25}})},
	}
	for _, batch := range muts {
		next, err := build.Apply(ctx, lineage[len(lineage)-1], batch...)
		if err != nil {
			t.Fatal(err)
		}
		lineage = append(lineage, next)
	}
	for i, r := range lineage {
		dir := filepath.Join(root, r.Tree.Mode().String(), "epoch", string(rune('1'+i)))
		info, err := Save(dir, r)
		if err != nil {
			t.Fatalf("epoch %d: %v", i+1, err)
		}
		if info.Epoch != uint64(i+1) {
			t.Fatalf("epoch %d saved as %d", i+1, info.Epoch)
		}
		a, err := Open(dir)
		if err != nil {
			t.Fatalf("epoch %d: %v", i+1, err)
		}
		if a.Result.Tree.Epoch() != uint64(i+1) || a.Result.Tree.Fingerprint() != r.Tree.Fingerprint() {
			t.Fatalf("epoch %d loads back wrong", i+1)
		}
		a.Close()
	}
}

// TestSwapBlueGreen rolls a loaded artifact out over a live server: the
// server boots from the epoch-1 artifact, epoch 2 is built offline from
// the owner's result and saved, and Swap publishes the loaded epoch-2
// backend. Swapping the stale epoch-1 artifact back in must be refused
// (epochs strictly advance).
func TestSwapBlueGreen(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 40, 11)
	e1, err := build.Outsource(ctx, spec, build.WithShuffle(11))
	if err != nil {
		t.Fatal(err)
	}
	d1 := t.TempDir()
	if _, err := Save(d1, e1); err != nil {
		t.Fatal(err)
	}
	a1, err := Open(d1)
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	b1, err := a1.Backend()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(b1)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Epoch() != 1 {
		t.Fatalf("serving epoch %d from a loaded artifact", srv.Epoch())
	}

	e2, err := build.Apply(ctx, e1, build.Insert(record.Record{ID: 900002, Attrs: []float64{0.5, 0.5}}))
	if err != nil {
		t.Fatal(err)
	}
	d2 := t.TempDir()
	if _, err := Save(d2, e2); err != nil {
		t.Fatal(err)
	}
	a2, err := Open(d2)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	b2, err := a2.Backend()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Swap(b2); err != nil {
		t.Fatalf("blue-green swap of a loaded artifact: %v", err)
	}
	if srv.Epoch() != 2 {
		t.Fatalf("serving epoch %d after swap", srv.Epoch())
	}
	if err := srv.Swap(b1); err == nil {
		t.Fatal("stale artifact swapped back in")
	}
}

// TestEncodeTreeIsOneExactAllocation: a blob is allocated once, at the
// length sizeTree computes, for both signing modes, a 2-D tree, every
// shard of a set, a pencil (seven lines through one point, whose sweep
// reverses a 7-block at one boundary) and a tree read back from an
// artifact — and every row of the forest it writes is some list's: a
// multi-swap gap leaves no dead rows. The blobs of the pencil (the multi-swap case), the 2-D
// tree at one and at eight workers, and every shard of the set are
// pinned by SHA-256; they last moved at format 5, when an FMH leaf
// became one hash of its record's encoding (every digest and
// signature over the forest moved, no length).
func TestEncodeTreeIsOneExactAllocation(t *testing.T) {
	ctx := context.Background()
	lines := testSpec(t, 60, 4)
	tbl, dom, err := workload.Points(workload.PointsConfig{N: 8, Dim: 2, Seed: 1, Dist: workload.AntiCorrelated})
	if err != nil {
		t.Fatal(err)
	}
	points := build.Spec{Table: tbl, Template: funcs.ScalarProduct(2), Domain: dom, Signer: lines.Signer}
	// Seven lines through (1/4, 1/2) plus one off it.
	pencilRecs := []record.Record{{ID: 1, Attrs: []float64{0.25, 0.125}}}
	for _, slope := range []float64{-2, -1, -0.5, 0.5, 1, 2, 3} {
		pencilRecs = append(pencilRecs, record.Record{ID: uint64(len(pencilRecs) + 1), Attrs: []float64{slope, 0.5 - slope/4}})
	}
	pencilTbl, err := record.NewTable(lines.Table.Schema, pencilRecs)
	if err != nil {
		t.Fatal(err)
	}
	pencil := build.Spec{Table: pencilTbl, Template: lines.Template, Domain: geometry.MustBox([]float64{-1}, []float64{1}), Signer: lines.Signer}
	for _, tc := range []struct {
		name   string
		spec   build.Spec
		opts   []build.Option
		reopen bool
		pins   []string // the SHA-256 of each tree's blob, when pinned
	}{
		{"one", lines, []build.Option{build.WithMode(verify.OneSignature), build.WithShuffle(4)}, false, nil},
		{"multi", lines, []build.Option{build.WithMode(verify.MultiSignature), build.WithShuffle(4)}, false, nil},
		{"2d", points, []build.Option{build.WithMode(verify.MultiSignature), build.WithWorkers(1)}, false, []string{"161f43f4d67524160b321bbdfeb6248a65ad8b31a539e631144b20bc223d0042"}},
		{"2d-8workers", points, []build.Option{build.WithMode(verify.MultiSignature), build.WithWorkers(8)}, false, []string{"161f43f4d67524160b321bbdfeb6248a65ad8b31a539e631144b20bc223d0042"}},
		{"set", lines, []build.Option{build.WithMode(verify.OneSignature), build.WithShuffle(4), build.WithShards(2, 0)}, false, []string{
			"d549273690111bb665d08b43a6bc02c41cde2e8cabcd77200e473d303f32bb7f",
			"86e383b0cbb4d28da11cbe2b96a098cf5d835ba2d0d1fbd60d6a65b4ce12ed68",
		}},
		{"pencil", pencil, []build.Option{build.WithMode(verify.OneSignature)}, false, []string{"c65c5c6390c6b148b4809ae4f214cb0e139288fa8a2c13baafaa1dfd1bf00f6e"}},
		{"reopened", lines, []build.Option{build.WithMode(verify.MultiSignature), build.WithShuffle(4)}, true, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := build.Outsource(ctx, tc.spec, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if tc.reopen {
				dir := t.TempDir()
				if _, err := Save(dir, res); err != nil {
					t.Fatal(err)
				}
				a, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
				res = a.Result
			}
			for i, tr := range treesOf(t, res) {
				s := tr.Snapshot()
				blob, _, err := encodeTree(s, i)
				if err != nil {
					t.Fatal(err)
				}
				if cap(blob) != len(blob) {
					t.Errorf("tree %d: a %d-byte blob in a %d-byte allocation", i, len(blob), cap(blob))
				}
				if sum := sha256.Sum256(blob); tc.pins != nil && hex.EncodeToString(sum[:]) != tc.pins[i] {
					t.Errorf("tree %d: blob SHA-256 %x, pinned %s", i, sum, tc.pins[i])
				}
				if got, rows := reachableRows(s), s.Forest.Len(); got != rows || tr.Stats().FMHNodes != rows {
					t.Errorf("tree %d: the lists reach %d of the forest's %d rows (FMHNodes %d)", i, got, rows, tr.Stats().FMHNodes)
				}
			}
		})
	}

	// A crafted forest no build makes and the decoder accepts: the first
	// list holds one row at two positions. Over six records a list has
	// eight leaves, so its root's left child's right child and right
	// child's left child each span two records; the crafted list puts the
	// former in both places. A row table has no pointer identity to lose:
	// the blob holds the table as it is, one exact allocation still, and
	// re-saving the decoded tree reproduces the blob byte for byte.
	t.Run("shared", func(t *testing.T) {
		res, err := build.Outsource(ctx, testSpec(t, 6, 2), build.WithMode(verify.MultiSignature), build.WithShuffle(2))
		if err != nil {
			t.Fatal(err)
		}
		s := res.Tree.Snapshot()
		f := s.Forest
		l0, r0 := f.Children(s.Subs[0].List.Row)
		_, lr := f.Children(l0)
		_, rr := f.Children(r0)
		rows := append([]byte(nil), f.Rows()...)
		rows = appendRow(rows, f.Digest(r0), lr, rr, f.Width(r0))
		rows = appendRow(rows, f.Digest(s.Subs[0].List.Row), l0, uint32(f.Len()), f.Width(s.Subs[0].List.Row))
		s.Forest = mhtree.FromRows(rows)
		first := *s.Subs[0]
		first.List.Forest, first.List.Row = s.Forest, uint32(s.Forest.Len()-1)
		s.Subs = append([]*core.SubInfo{&first}, s.Subs[1:]...)

		blob, _, err := encodeTree(s, build.ShardNone)
		if err != nil {
			t.Fatal(err)
		}
		if cap(blob) != len(blob) {
			t.Errorf("a %d-byte blob in a %d-byte allocation", len(blob), cap(blob))
		}
		d, err := decodeTree(blob)
		if err != nil {
			t.Fatalf("the crafted forest's blob: %v", err)
		}
		if again, _, err := encodeTree(d.Snapshot, build.ShardNone); err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("the decoded crafted forest re-saves to a different blob (%v)", err)
		}
		if len(d.Subs) != len(s.Subs) {
			t.Fatalf("%d lists decode from %d", len(d.Subs), len(s.Subs))
		}
		for k, si := range s.Subs {
			if got, want := d.Subs[k].List.Root(), si.List.Root(); got != want {
				t.Fatalf("list %d: root %x decodes as %x", k, want, got)
			}
			if w, g := fmt.Sprint(si.List.Window(nil, 0, si.List.N)), fmt.Sprint(d.Subs[k].List.Window(nil, 0, si.List.N)); g != w {
				t.Fatalf("list %d: records %s decode as %s", k, w, g)
			}
		}
		rd := d.Subs[0].List.Reader()
		if got, want := rd.At(1), rd.At(3); got != want {
			t.Fatalf("the crafted list does not repeat its shared records: leaf 2 names %d, leaf 4 %d", got, want)
		}
	})
}

// appendRow appends one FMH forest row: digest, left, right, width.
func appendRow(rows []byte, d hashing.Digest, l, r uint32, w int) []byte {
	rows = append(rows, d[:]...)
	rows = binary.BigEndian.AppendUint32(rows, l)
	rows = binary.BigEndian.AppendUint32(rows, r)
	return binary.BigEndian.AppendUint32(rows, uint32(w))
}

// reachableRows counts the forest rows some subdomain's list reaches.
func reachableRows(s core.Snapshot) int {
	seen := make([]bool, s.Forest.Len())
	count := 0
	var walk func(i uint32)
	walk = func(i uint32) {
		if seen[i] {
			return
		}
		seen[i] = true
		count++
		if l, r := s.Forest.Children(i); l != mhtree.None {
			walk(l)
			walk(r)
		}
	}
	for _, si := range s.Subs {
		walk(si.List.Row)
	}
	return count
}

// TestSaveOverAnOpenArtifact: saving a new epoch into the directory an
// open artifact was mapped from leaves that artifact answering — Save
// renames fresh files into place instead of truncating the mapped ones
// (which killed the process with SIGBUS on the next answer) — and a
// fresh Open serves the new epoch.
func TestSaveOverAnOpenArtifact(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 200, 13)
	qs := sampleQueries(spec.Domain, 6)
	e1, err := build.Outsource(ctx, spec, build.WithMode(verify.OneSignature), build.WithShuffle(13))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Save(dir, e1); err != nil {
		t.Fatal(err)
	}
	a1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	b1, err := a1.Backend()
	if err != nil {
		t.Fatal(err)
	}

	dels := make([]build.Mutation, 150)
	for i := range dels {
		dels[i] = build.Delete(i)
	}
	e2, err := build.Apply(ctx, e1, dels...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Save(dir, e2); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".*.tmp")); len(left) != 0 {
		t.Errorf("Save left %v behind", left)
	}
	a2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if a2.Epoch != 2 {
		t.Fatalf("a fresh Open serves epoch %d, want 2", a2.Epoch)
	}
	b2, err := a2.Backend()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if _, err := backend.One(ctx, b1, q, backend.WithVerify(a1.Result.Public)); err != nil {
			t.Fatalf("epoch 1 after the save: %v", err)
		}
		if _, err := backend.One(ctx, b2, q, backend.WithVerify(a2.Result.Public)); err != nil {
			t.Fatalf("epoch 2: %v", err)
		}
	}
}

// TestOpenCopiesTheForest: an open artifact's FMH forest is a heap copy
// of the blob's forest section, not a view of the map. Overwriting the
// section in place in the mapped file — which a shared map shows at
// once — leaves every answer of a mixed query set verifying: the
// indices Open validated are the ones it serves.
func TestOpenCopiesTheForest(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 200, 17)
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		res, err := build.Outsource(ctx, spec, build.WithMode(mode), build.WithShuffle(17))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, err := Save(dir, res); err != nil {
			t.Fatal(err)
		}
		a, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		path := filepath.Join(dir, treeName)
		rows := res.Tree.Snapshot().Forest.Rows()
		at := bytes.Index(mustRead(t, path), rows)
		if at < 0 {
			t.Fatal("the forest's rows are not in the blob")
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(bytes.Repeat([]byte{0xff}, len(rows)), int64(at)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if mp := a.maps[0]; mp.mapped && mp.data[at] != 0xff {
			t.Fatal("the shared map does not show the in-place write")
		}
		b, err := a.Backend()
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range sampleQueries(spec.Domain, 12) {
			if _, err := backend.One(ctx, b, q, backend.WithVerify(a.Result.Public)); err != nil {
				t.Fatalf("%v: %v after the forest was overwritten in the file", mode, err)
			}
		}
	}
}

// TestOpenedAttributesAreCapped: Open decodes every record's attributes
// into one slab, each record's slice capped at its own end, so an append
// to one record's attributes copies them instead of overwriting the next
// record's.
func TestOpenedAttributesAreCapped(t *testing.T) {
	spec := testSpec(t, 40, 3)
	res, err := build.Outsource(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Save(dir, res); err != nil {
		t.Fatal(err)
	}
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	recs := a.Result.Tree.Snapshot().Table.Records
	for i := range recs[:len(recs)-1] {
		next := slices.Clone(recs[i+1].Attrs)
		_ = append(recs[i].Attrs, 1e300, 1e300)
		if !slices.Equal(recs[i+1].Attrs, next) || !slices.Equal(recs[i+1].Attrs, spec.Table.Records[i+1].Attrs) {
			t.Fatalf("appending to record %d's attributes changed record %d's", i, i+1)
		}
	}
}

// corruptCase mutates a valid artifact directory and names the refusal
// Open must answer with.
type corruptCase struct {
	name   string
	mutate func(t *testing.T, dir string)
	want   error
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustWrite(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRefusalMatrix drives Open through every named refusal: wrong
// magic, unknown version, truncation, bit flips (content hash), and a
// mixed-epoch (torn) directory.
func TestRefusalMatrix(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 30, 13)
	res, err := build.Outsource(ctx, spec, build.WithShuffle(13))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := build.Apply(ctx, res, build.Delete(1))
	if err != nil {
		t.Fatal(err)
	}

	cases := []corruptCase{
		{"tree-bad-magic", func(t *testing.T, dir string) {
			p := filepath.Join(dir, treeName)
			b := mustRead(t, p)
			b[0] ^= 0xff
			mustWrite(t, p, b)
		}, ErrBadMagic},
		{"manifest-bad-magic", func(t *testing.T, dir string) {
			p := filepath.Join(dir, ManifestName)
			b := mustRead(t, p)
			b[3] = 'X'
			mustWrite(t, p, b)
		}, ErrBadMagic},
		{"tree-version", func(t *testing.T, dir string) {
			p := filepath.Join(dir, treeName)
			b := mustRead(t, p)
			b[7] = 99 // the version word sits right after the magic
			mustWrite(t, p, b)
		}, ErrVersion},
		{"manifest-version", func(t *testing.T, dir string) {
			p := filepath.Join(dir, ManifestName)
			b := mustRead(t, p)
			b[7] = 99
			mustWrite(t, p, b)
		}, ErrVersion},
		{"tree-truncated", func(t *testing.T, dir string) {
			p := filepath.Join(dir, treeName)
			b := mustRead(t, p)
			mustWrite(t, p, b[:len(b)-40]) // ends mid-trailer
		}, ErrTruncated},
		{"manifest-truncated", func(t *testing.T, dir string) {
			p := filepath.Join(dir, ManifestName)
			b := mustRead(t, p)
			mustWrite(t, p, b[:len(b)-40])
		}, ErrTruncated},
		{"tree-bit-flip", func(t *testing.T, dir string) {
			p := filepath.Join(dir, treeName)
			b := mustRead(t, p)
			b[len(b)/2] ^= 0x01
			mustWrite(t, p, b)
		}, ErrCorrupt},
		{"manifest-bit-flip", func(t *testing.T, dir string) {
			p := filepath.Join(dir, ManifestName)
			b := mustRead(t, p)
			b[len(b)/2] ^= 0x01
			mustWrite(t, p, b)
		}, ErrCorrupt},
		{"manifest-semtol", func(t *testing.T, dir string) {
			// The tolerance word is always verify.SemTol; another value,
			// resealed so the seal cannot catch it, is refused by the parse.
			p := filepath.Join(dir, ManifestName)
			b := mustRead(t, p)
			at := bytes.Index(b, binary.BigEndian.AppendUint64(nil, math.Float64bits(verify.SemTol)))
			if at < 0 {
				t.Fatal("no semantic tolerance word in the manifest")
			}
			binary.BigEndian.PutUint64(b[at:], math.Float64bits(2*verify.SemTol))
			mustWrite(t, p, reseal(b))
		}, ErrCorrupt},
		{"torn-mixed-epoch", func(t *testing.T, dir string) {
			// A self-consistent blob from the epoch-2 artifact lands in
			// the epoch-1 directory: internally valid, wrong publication.
			other := t.TempDir()
			if _, err := Save(other, e2); err != nil {
				t.Fatal(err)
			}
			mustWrite(t, filepath.Join(dir, treeName), mustRead(t, filepath.Join(other, treeName)))
		}, ErrTorn},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := Save(dir, res); err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, dir)
			_, err := Open(dir)
			if err == nil {
				t.Fatal("corrupt artifact accepted")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}

	// Every truncation of the blob is refused with a named error, and
	// never panics.
	dir := t.TempDir()
	if _, err := Save(dir, res); err != nil {
		t.Fatal(err)
	}
	blob := mustRead(t, filepath.Join(dir, treeName))
	for cut := 0; cut < len(blob); cut += 97 {
		if _, err := decodeTree(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		} else if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) {
			t.Fatalf("truncation at %d: unnamed refusal %v", cut, err)
		}
	}
}

// TestLeafRowsAreValidated: format 2 puts the record a leaf commits to in
// its forest row, and the server indexes its table with it, so the
// decoder must refuse by name every row that could index out of bounds
// or put a sentinel where a record is due — and must refuse the previous
// version, whose leaves name nothing, before parsing any of it.
func TestLeafRowsAreValidated(t *testing.T) {
	blob, _ := fuzzSeeds(t)
	if _, err := decodeTree(blob); err != nil {
		t.Fatalf("honest blob: %v", err)
	}
	h := hashing.New(nil)
	const n = 4 // fuzzSeeds' table
	rec0 := firstRecordLeaf(t)
	for _, tc := range []struct {
		name string
		blob []byte
		want error
	}{
		{"version 1", asVersion1(blob), ErrVersion},
		{"record == n", withLeafRecord(t, blob, rec0, n), ErrCorrupt},
		{"record far outside", withLeafRecord(t, blob, rec0, 1<<31), ErrCorrupt},
		{"record leaf naming nothing", withLeafRecord(t, blob, rec0, nilIndex), ErrCorrupt},
		{"min sentinel naming a record", withLeafRecord(t, blob, h.SentinelMin(n), 0), ErrCorrupt},
		{"max sentinel naming a record", withLeafRecord(t, blob, h.SentinelMax(n), n-1), ErrCorrupt},
	} {
		if _, err := decodeTree(tc.blob); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// Naming a different record of the table is structurally fine: the
	// file's seal and the client's verification are what catch it.
	if _, err := decodeTree(withLeafRecord(t, blob, rec0, n-1)); err != nil {
		t.Errorf("in-range record refused: %v", err)
	}
}

// oldFormatNames are the artifacts testdata/format<v> holds, each built
// and saved by the parent commit of the bump that retired format v:
// "lines" the univariate fuzz-seed build, "points" a bivariate one, both
// multi-signature (see oldFormatBuild).
var oldFormatNames = []string{"lines", "points"}

// oldFormatBuild rebuilds the named fixture's product now.
func oldFormatBuild(t *testing.T, name string) *build.Result {
	t.Helper()
	spec, opts := testSpec(t, 4, 2), []build.Option{build.WithMode(verify.MultiSignature), build.WithShuffle(2)}
	if name == "points" {
		tbl, dom, err := workload.Points(workload.PointsConfig{N: 5, Dim: 2, Seed: 1, Dist: workload.AntiCorrelated})
		if err != nil {
			t.Fatal(err)
		}
		spec = build.Spec{Table: tbl, Template: funcs.ScalarProduct(2), Domain: dom, Signer: spec.Signer}
		opts = []build.Option{build.WithMode(verify.MultiSignature)}
	}
	res, err := build.Outsource(context.Background(), spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// refusedByVersion checks that an old-format directory is refused with
// ErrVersion, its tree blob alone and the whole directory alike, and
// returns the blob.
func refusedByVersion(t *testing.T, dir string) []byte {
	t.Helper()
	old := mustRead(t, filepath.Join(dir, treeName))
	if _, err := decodeTree(old); !errors.Is(err, ErrVersion) {
		t.Fatalf("%s blob: got %v, want %v", dir, err, ErrVersion)
	}
	if _, err := Open(dir); !errors.Is(err, ErrVersion) {
		t.Fatalf("%s directory: got %v, want %v", dir, err, ErrVersion)
	}
	return old
}

// TestFormat2IsRefused: format 2 carried a flags byte after the mode and,
// for a multivariate tree, a copy of every subdomain's order in a
// permutation row nothing checked against the leaves. Both fixtures are
// refused by version.
func TestFormat2IsRefused(t *testing.T) {
	for _, name := range oldFormatNames {
		t.Run(name, func(t *testing.T) { refusedByVersion(t, filepath.Join("testdata", "format2", name)) })
	}
}

// forestOffset is the offset of a blob's forest count: past magic, version,
// epoch, mode, shard index, domain, schema and records. Format 3's sweep
// plan sat there, before the forest.
func forestOffset(s core.Snapshot) int {
	at := len(magicTree) + 4 + 8 + 1 + 4 + 4 + 16*s.Domain.Dim() + 4 + len(s.Table.Schema.Name) + 4
	for _, c := range s.Table.Schema.Columns {
		at += 4 + len(c.Name) + 4 + len(c.Description)
	}
	at += 4
	for _, rec := range s.Table.Records {
		at += rec.EncodedLen()
	}
	return at
}

// TestFormat3IsRefused: format 3 carried the sweep plan — owner state no
// server reads — between the records and the FMH forest. Both fixtures
// are refused by version, and the format-4 blob the same build wrote is
// the format-3 blob minus exactly that section, restamped and resealed,
// byte for byte: no served byte moved. Between the two fixtures a 1-D
// boundary became a float threshold, so the univariate fixture's IMH
// hyperplanes, every hash over them and its signatures moved; what
// precedes the plan — header, domain, schema and records — still
// matches byte for byte.
func TestFormat3IsRefused(t *testing.T) {
	for _, name := range oldFormatNames {
		t.Run(name, func(t *testing.T) {
			old := refusedByVersion(t, filepath.Join("testdata", "format3", name))
			blob := mustRead(t, filepath.Join("testdata", "format4", name, treeName))

			s := oldFormatBuild(t, name).Tree.Snapshot()
			n, boundaries := s.Table.Len(), len(s.Subs)-1
			if s.Template.Dim() != 1 {
				n, boundaries = 0, 0 // a multivariate tree had an empty plan
			}
			// The plan was a u32-counted base permutation, then a
			// u32-counted list of boundaries, each a u32-counted list of
			// swap positions.
			at := forestOffset(s)
			end := at
			u32 := func() int { v := int(binary.BigEndian.Uint32(old[end:])); end += 4; return v }
			if got := u32(); got != n {
				t.Fatalf("the format-3 plan has %d base entries, want %d", got, n)
			}
			end += 4 * n
			if got := u32(); got != boundaries {
				t.Fatalf("the format-3 plan has %d boundaries, want %d", got, boundaries)
			}
			for b := 0; b < boundaries; b++ {
				end += 4 * u32()
			}

			body := append(append([]byte(nil), old[:at]...), old[end:]...)
			binary.BigEndian.PutUint32(body[len(magicTree):], 4)
			if s.Template.Dim() == 1 {
				if !bytes.Equal(body[:at], blob[:at]) {
					t.Errorf("the format-3 blob's first %d bytes, before its plan, are not the format-4 blob's", at)
				}
				return
			}
			if !bytes.Equal(reseal(body), blob) {
				t.Errorf("the format-3 blob minus its %d-byte plan is not the %d-byte format-4 blob", end-at, len(blob))
			}
		})
	}
}

// TestFormat4IsRefused: format 4 had format 5's layout, but each FMH
// leaf row committed to H(0x02 | H(0x01 | enc(r))), over a record digest
// the client no longer computes, where format 5 commits to
// H(0x02 | enc(r)). Both fixtures are refused by version, and the blob
// the same build writes now is the format-4 blob's length, with every
// byte before the forest (restamped) and every forest row's children and
// width unchanged: only digests moved. Each record leaf's digest is the
// old rule over its record in the fixture and the new one now, both
// computed here with crypto/sha256.
func TestFormat4IsRefused(t *testing.T) {
	for _, name := range oldFormatNames {
		t.Run(name, func(t *testing.T) {
			old := refusedByVersion(t, filepath.Join("testdata", "format4", name))
			res := oldFormatBuild(t, name)
			now := t.TempDir()
			if _, err := Save(now, res); err != nil {
				t.Fatal(err)
			}
			blob := mustRead(t, filepath.Join(now, treeName))
			if len(old) != len(blob) {
				t.Fatalf("the format-4 blob is %d bytes, the blob written now %d", len(old), len(blob))
			}

			s := res.Tree.Snapshot()
			at := forestOffset(s)
			head := append([]byte(nil), old[:at]...)
			binary.BigEndian.PutUint32(head[len(magicTree):], formatVersion)
			if !bytes.Equal(head, blob[:at]) {
				t.Errorf("the format-4 blob's first %d bytes, before its forest, are not the blob's written now", at)
			}
			leaves := 0
			for i := range int(binary.BigEndian.Uint32(blob[at:])) {
				o := at + 4 + i*mhtree.RowSize
				was, is := old[o:o+mhtree.RowSize], blob[o:o+mhtree.RowSize]
				if !bytes.Equal(was[hashing.Size:], is[hashing.Size:]) {
					t.Fatalf("forest row %d's children or width moved", i)
				}
				l, rec := binary.BigEndian.Uint32(is[hashing.Size:]), binary.BigEndian.Uint32(is[hashing.Size+4:])
				if l != mhtree.None || rec == mhtree.None {
					continue // an internal row or a sentinel leaf
				}
				enc := s.Table.Records[rec].Encode(nil)
				inner := sha256.Sum256(append([]byte{0x01}, enc...))
				wasD, isD := sha256.Sum256(append([]byte{0x02}, inner[:]...)), sha256.Sum256(append([]byte{0x02}, enc...))
				if !bytes.Equal(was[:hashing.Size], wasD[:]) || !bytes.Equal(is[:hashing.Size], isD[:]) {
					t.Errorf("leaf row %d (record %d) does not carry the format-4 rule then and the format-5 rule now", i, rec)
				}
				leaves++
			}
			if leaves < s.Table.Len() {
				t.Errorf("%d record leaf rows for %d records", leaves, s.Table.Len())
			}
		})
	}
}

// TestWorkedExample pins the worked example quoted in docs/ARTIFACT.md
// byte-for-byte: a deterministic three-record build whose manifest hex,
// blob content hash and artifact hash must never drift. If this test
// breaks, the format or the default build changed: a format change bumps
// formatVersion; either way the doc's quoted bytes are rewritten with the
// constants here (the tree's IMH shape is part of the blob, so a change
// to how a univariate tree is shaped moves the hashes without touching
// the format).
func TestWorkedExample(t *testing.T) {
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{Rand: sig.DeterministicRand(1)})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := record.NewTable(
		record.Schema{Name: "ex", Columns: []record.Column{{Name: "slope"}, {Name: "intercept"}}},
		[]record.Record{
			{ID: 1, Attrs: []float64{1, 0}},
			{ID: 2, Attrs: []float64{-1, 0.5}},
			{ID: 3, Attrs: []float64{0.25, -0.25}},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	dom := geometry.MustBox([]float64{-1}, []float64{1})
	res, err := build.Outsource(context.Background(), build.Spec{
		Table: tbl, Template: funcs.AffineLine(0, 1), Domain: dom, Signer: signer,
	}, build.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	info, err := Save(dir, res)
	if err != nil {
		t.Fatal(err)
	}

	manifestHex := hex.EncodeToString(mustRead(t, filepath.Join(dir, ManifestName)))
	blob := mustRead(t, filepath.Join(dir, treeName))
	blobHash := sha256.Sum256(blob[:len(blob)-32])

	const wantManifest = "4151414d00000005010000000000000001000000002d04302a300506032b6570032100069d8d6980eaf1bca2e4118bc612a13f23791bf2c60ceef2692b581d27b0a1590000000b616666696e652d6c696e650000000100000000000000013e112e0be826d69500000001bff00000000000003ff00000000000000000000000000000000000015cc7b7585e0dc9731e29c0382b7a8e6868a8a7e9823076f6bba3323fa01f4f344877f302ced0eb2b8111f7fe5117c25ecbb81e4594820458712e4659994a699b8cad744d4bf754282b84bb3c7674068bb0f6c69da4418e3eaf058aef6d436090"
	const wantBlobHash = "5cc7b7585e0dc9731e29c0382b7a8e6868a8a7e9823076f6bba3323fa01f4f34"
	const wantArtifact = "8cad744d4bf754282b84bb3c7674068bb0f6c69da4418e3eaf058aef6d436090"
	if manifestHex != wantManifest {
		t.Errorf("manifest bytes drifted:\n got %s\nwant %s", manifestHex, wantManifest)
	}
	if got := hex.EncodeToString(blobHash[:]); got != wantBlobHash {
		t.Errorf("blob content hash drifted: got %s want %s", got, wantBlobHash)
	}
	if info.HashHex() != wantArtifact {
		t.Errorf("artifact hash drifted: got %s want %s", info.HashHex(), wantArtifact)
	}

	// The forest rows the doc quotes: 26 rows from byte 181, a leaf row
	// carrying its record index (none for the sentinel) where an internal
	// row carries its right child.
	const forestAt, row = 181, 44
	wantRows := []string{ // left, right, width of rows 0..5
		"ffffffffffffffff00000001", "ffffffff0000000000000001", "000000000000000100000002",
		"ffffffff0000000200000001", "ffffffff0000000100000001", "000000030000000400000002",
	}
	if len(blob) != 1820 || hex.EncodeToString(blob[forestAt:forestAt+4]) != "0000001a" {
		t.Fatalf("blob is %d bytes with forest count %x at %d; the doc says 1820 and 26", len(blob), blob[forestAt:forestAt+4], forestAt)
	}
	for i, want := range wantRows {
		at := forestAt + 4 + i*row + 32 // past the row's digest
		if got := hex.EncodeToString(blob[at : at+12]); got != want {
			t.Errorf("forest row %d is %s, the doc quotes %s", i, got, want)
		}
	}
}
