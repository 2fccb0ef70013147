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
	"strings"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/core"
	"aqverify/internal/fmh"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
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
			// ReadInfo agrees with the full open.
			ri, err := ReadInfo(dir)
			if err != nil {
				t.Fatal(err)
			}
			if ri.Hash != info.Hash || ri.Kind != info.Kind || ri.Shards != info.Shards {
				t.Fatalf("ReadInfo %+v disagrees with Save %+v", ri, info)
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
// artifact — and forestBound sizes the node table at exactly the
// forest's rows.
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
	}{
		{"one", lines, []build.Option{build.WithMode(verify.OneSignature), build.WithShuffle(4)}, false},
		{"multi", lines, []build.Option{build.WithMode(verify.MultiSignature), build.WithShuffle(4)}, false},
		{"2d", points, []build.Option{build.WithMode(verify.MultiSignature)}, false},
		{"set", lines, []build.Option{build.WithMode(verify.OneSignature), build.WithShuffle(4), build.WithShards(2, 0)}, false},
		{"pencil", pencil, []build.Option{build.WithMode(verify.OneSignature)}, false},
		{"reopened", lines, []build.Option{build.WithMode(verify.MultiSignature), build.WithShuffle(4)}, true},
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
				if rows := tr.Stats().FMHNodes; forestBound(s) != rows {
					t.Errorf("tree %d: forestBound %d for the forest's %d rows", i, forestBound(s), rows)
				}
			}
		})
	}

	// A crafted forest no build makes and the decoder accepts: the first
	// list holds one node at two positions. Over six records a list has
	// eight leaves, so its root's left child's right child and right
	// child's left child each span two records; the crafted list puts the
	// former in both places. The encoder writes a row per position — one
	// exact allocation still — and the blob decodes to the same lists.
	t.Run("shared", func(t *testing.T) {
		res, err := build.Outsource(ctx, testSpec(t, 6, 2), build.WithMode(verify.MultiSignature), build.WithShuffle(2))
		if err != nil {
			t.Fatal(err)
		}
		s := res.Tree.Snapshot()
		l0 := s.Subs[0].List.Tree
		right, root := *l0.R, *l0
		right.L, root.R = l0.L.R, &right
		first := *s.Subs[0]
		first.List = &fmh.List{N: first.List.N, Tree: &root}
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
		for i, rec := range s.Table.Records {
			if !bytes.Equal(d.table.Records[i].Encode(nil), rec.Encode(nil)) {
				t.Fatalf("record %d decodes differently", i)
			}
		}
		if len(d.subs) != len(s.Subs) {
			t.Fatalf("%d lists decode from %d", len(d.subs), len(s.Subs))
		}
		for k, si := range s.Subs {
			want, got := si.List.Tree, d.subs[k].List.Tree
			if got.H != want.H || got.W != want.W {
				t.Fatalf("list %d: root %x/%d decodes as %x/%d", k, want.H, want.W, got.H, got.W)
			}
			if w, g := fmt.Sprint(want.Records(nil, 0, int(want.W)-1)), fmt.Sprint(got.Records(nil, 0, int(got.W)-1)); g != w {
				t.Fatalf("list %d: records %s decode as %s", k, w, g)
			}
		}
		if got, want := d.subs[0].List.Tree.RecordAt(2), d.subs[0].List.Tree.RecordAt(4); got != want {
			t.Fatalf("the crafted list does not repeat its shared records: leaf 2 names %d, leaf 4 %d", got, want)
		}
	})
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

// TestFormat3IsRefused: format 3 carried the sweep plan — owner state no
// server reads — between the records and the FMH forest. Both fixtures
// are refused by version, and the blob the same build writes now is the
// format-3 blob minus exactly that section, restamped and resealed, byte
// for byte: no served byte moved.
func TestFormat3IsRefused(t *testing.T) {
	for _, name := range oldFormatNames {
		t.Run(name, func(t *testing.T) {
			old := refusedByVersion(t, filepath.Join("testdata", "format3", name))
			res := oldFormatBuild(t, name)
			now := t.TempDir()
			if _, err := Save(now, res); err != nil {
				t.Fatal(err)
			}
			blob := mustRead(t, filepath.Join(now, treeName))

			s := res.Tree.Snapshot()
			n, boundaries := s.Table.Len(), len(s.Subs)-1
			if s.Template.Dim() != 1 {
				n, boundaries = 0, 0 // a multivariate tree had an empty plan
			}
			// The plan followed magic, version, epoch, mode, shard index,
			// domain, schema and records: a u32-counted base permutation,
			// then a u32-counted list of boundaries, each a u32-counted
			// list of swap positions.
			at := len(magicTree) + 4 + 8 + 1 + 4 + 4 + 16*s.Domain.Dim() + 4 + len(s.Table.Schema.Name) + 4
			for _, c := range s.Table.Schema.Columns {
				at += 4 + len(c.Name) + 4 + len(c.Description)
			}
			at += 4
			for _, rec := range s.Table.Records {
				at += rec.EncodedLen()
			}
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
			binary.BigEndian.PutUint32(body[len(magicTree):], formatVersion)
			if !bytes.Equal(reseal(body), blob) {
				t.Errorf("the format-3 blob minus its %d-byte plan is not the %d-byte blob written now", end-at, len(blob))
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
// to the default canonical order moves the hashes without touching the
// format).
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

	const wantManifest = "4151414d00000004010000000000000001000000002d04302a300506032b6570032100069d8d6980eaf1bca2e4118bc612a13f23791bf2c60ceef2692b581d27b0a1590000000b616666696e652d6c696e650000000100000000000000013e112e0be826d69500000001bff00000000000003ff000000000000000000000000000000000000112e8410829acaf9a8a4f06973e7e1b5c8a1af3d00c76e29bc6ca9d367eb9a76c052c359d85e930a416f2a65aea0caa8e6bc4451780feadcdb8072adef1f0791be5a8b9882cfd2d4b5e456cbc82d808239c22a6c472124abed3d0e08fff9e6c3d"
	const wantBlobHash = "12e8410829acaf9a8a4f06973e7e1b5c8a1af3d00c76e29bc6ca9d367eb9a76c"
	const wantArtifact = "e5a8b9882cfd2d4b5e456cbc82d808239c22a6c472124abed3d0e08fff9e6c3d"
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
