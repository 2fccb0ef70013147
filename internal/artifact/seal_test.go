package artifact

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"aqverify/internal/build"
	"aqverify/internal/codec"
	"aqverify/internal/core"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/verify"
	"aqverify/internal/workload"
)

// encodeTree is a sealed blob in one buffer: the bytes Save writes for
// s, and their trailer.
func encodeTree(s core.Snapshot, shardIdx int) ([]byte, hashing.Digest, error) {
	buf, h := seal(&codec.Writer{Buf: encodeBody(s, shardIdx)})
	return buf, h, nil
}

// namedRefusal reports whether err wraps one of the errors Open refuses
// a damaged blob with.
func namedRefusal(err error) bool {
	for _, want := range []error{ErrTruncated, ErrCorrupt, ErrBadMagic, ErrVersion} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// settle fails t unless the goroutine count falls back to n within a
// tenth of a second: a goroutine that has handed its result over may
// still be exiting, one still hashing would not be.
func settle(t *testing.T, n int, after string) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > n; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines outlive %s, %d before", runtime.NumGoroutine(), after, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOpenRefusesEveryCutAndFlip: Open hashes a mapped blob on a second
// goroutine while it parses it, and closes the map when it refuses one,
// so that goroutine must be joined on every refusal path. Every
// truncation of a saved blob, and one bit flipped at every byte — the
// magic, the version, the header, the records, the forest rows, the
// subdomain roots, the IMH table, the root signature and the trailer —
// is refused with a named error, by magic and version where those were
// hit; no refusal crashes on an unmapped blob, and no goroutine outlives
// the refusals.
func TestOpenRefusesEveryCutAndFlip(t *testing.T) {
	res, err := build.Outsource(context.Background(), testSpec(t, 8, 5), build.WithMode(verify.OneSignature), build.WithShuffle(5))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Save(dir, res); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, treeName)
	blob := mustRead(t, p)
	before := runtime.NumGoroutine()
	open := func(b []byte, what string, want func(error) bool) {
		t.Helper()
		mustWrite(t, p, b)
		a, err := Open(dir)
		if err == nil {
			a.Close()
			t.Fatalf("%s: accepted", what)
		}
		if !want(err) {
			t.Fatalf("%s: %v", what, err)
		}
	}
	for cut := range blob {
		open(blob[:cut], "a cut blob", namedRefusal)
	}
	for i := range blob {
		b := append([]byte(nil), blob...)
		b[i] ^= 1 << (i % 8)
		want := namedRefusal
		switch {
		case i < 4:
			want = func(err error) bool { return errors.Is(err, ErrBadMagic) }
		case i < 8:
			want = func(err error) bool { return errors.Is(err, ErrVersion) }
		}
		open(b, "a flipped blob", want)
	}
	settle(t, before, "the refused opens")
	mustWrite(t, p, blob)
	a, err := Open(dir)
	if err != nil {
		t.Fatalf("the saved blob, written back: %v", err)
	}
	a.Close()
}

// TestForgedDimensionDrivesNoSlab: the IMH hyperplanes decode into one
// slab sized from two counts the blob carries — the domain's dimension
// and the IMH node count. A blob whose bytes are split between a wide
// domain box and a node count that zero padding makes plausible is
// refused as ErrCorrupt, and the slab stays bounded by the bytes present
// (sized from the counts alone it would be 29 MB here; at 1 MiB of
// input, 3.7 GB).
func TestForgedDimensionDrivesNoSlab(t *testing.T) {
	res, err := build.Outsource(context.Background(), testSpec(t, 8, 5), build.WithMode(verify.OneSignature))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Tree.Snapshot()
	const dim, pad = 2048, 64 << 10
	box, err := geometry.NewBox(make([]float64, dim), slices.Repeat([]float64{1}, dim))
	if err != nil {
		t.Fatal(err)
	}
	s.Domain = box
	body := encodeBody(s, build.ShardNone)
	_, isize := imhSize(s.ITree.Root)
	w := &codec.Writer{Buf: body[:len(body)-4-len(s.RootSig)-isize-4]}
	w.U32(pad / 37) // every node count the padding can hold
	w.Buf = append(w.Buf, make([]byte, pad)...)
	data := w.Buf
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decodeTree(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a forged dimension and node count: %v, want ErrCorrupt", err)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d-byte blob, %d bytes allocated", len(data), grew)
	if grew > uint64(8*len(data)) {
		t.Errorf("decoding a %d-byte blob allocated %d bytes", len(data), grew)
	}
}

// TestSaveLeavesNothingBehind: a Save that cannot write a blob's
// temporary file — here one shard's temporary name is taken by a
// directory — returns the error with the hash of the blob it could not
// write joined, renames nothing into place, and removes the temporary
// file of the shard it had written (and the empty directory, which
// stood at a name it owns).
func TestSaveLeavesNothingBehind(t *testing.T) {
	res, err := build.Outsource(context.Background(), testSpec(t, 40, 6), build.WithMode(verify.OneSignature), build.WithShards(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Mkdir(tempName(dir, shardName(1)), 0o755); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if _, err := Save(dir, res); err == nil {
		t.Fatal("a Save over a taken temporary name succeeded")
	}
	settle(t, before, "the failed Save")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("a failed Save left %s behind", e.Name())
	}
}

// TestOpenAllocs pins the allocations of opening the republish
// benchmark's artifact — 2 000 lines, seed 1, one signature — at 300:
// the IMH hyperplanes decode into one slab and the records' coefficients
// into another, where each was its own allocation (6 900 in all before;
// 83 measured with Go 1.24).
func TestOpenAllocs(t *testing.T) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(t, 8, 1)
	spec.Table, spec.Domain = tbl, dom
	res, err := build.Outsource(context.Background(), spec, build.WithMode(verify.OneSignature), build.WithShuffle(1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Save(dir, res); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		a, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		a.Close()
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > 300 {
		t.Errorf("opening the 2 000-line artifact allocates %.0f times, want at most 300", allocs)
	}
}
