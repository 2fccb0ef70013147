package artifact

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"aqverify/internal/build"
	"aqverify/internal/hashing"
	"aqverify/internal/verify"
)

// fuzzSeeds builds one small artifact per product shape and returns its
// file bytes — the honest corpus the mutators start from.
func fuzzSeeds(f testing.TB) (tree, man []byte) {
	f.Helper()
	// A tiny build keeps the seed blob small, which keeps the engine's
	// minimization of derived interesting inputs cheap.
	spec := testSpec(f, 4, 2)
	res, err := build.Outsource(context.Background(), spec, build.WithMode(verify.MultiSignature), build.WithShuffle(2))
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	if _, err := Save(dir, res); err != nil {
		f.Fatal(err)
	}
	tree, err = os.ReadFile(filepath.Join(dir, treeName))
	if err != nil {
		f.Fatal(err)
	}
	man, err = os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	return tree, man
}

// reseal recomputes a blob's trailing content hash after an edit, so the
// edit is judged by the structural pass, not caught by the seal.
func reseal(blob []byte) []byte {
	body := blob[:len(blob)-sha256.Size]
	sum := sha256.Sum256(body)
	return append(append([]byte(nil), body...), sum[:]...)
}

// asVersion1 stamps a blob with the previous format version, resealed.
func asVersion1(blob []byte) []byte {
	out := append([]byte(nil), blob...)
	binary.BigEndian.PutUint32(out[len(magicTree):], 1)
	return reseal(out)
}

// withLeafRecord rewrites, in the forest row of the leaf with digest d,
// the slot naming the leaf's record, resealed.
func withLeafRecord(t testing.TB, blob []byte, d hashing.Digest, rec uint32) []byte {
	t.Helper()
	at := bytes.Index(blob, d[:])
	if at < 0 {
		t.Fatal("leaf digest not in the blob")
	}
	out := append([]byte(nil), blob...)
	binary.BigEndian.PutUint32(out[at+len(d)+4:], rec) // digest, L, then R
	return reseal(out)
}

// firstRecordLeaf is the FMH leaf digest of the seed build's record 0.
func firstRecordLeaf(f testing.TB) hashing.Digest {
	h := hashing.New(nil)
	return h.Leaf(testSpec(f, 4, 2).Table.Records[0])
}

// FuzzDecodeTree hammers the blob decoder: any input must either decode
// or be refused with a named error — never panic, never over-allocate.
// The seed corpus covers the honest blob plus the refusal matrix's
// shapes: truncations, a flipped content-hash bit, a wrong magic, older
// format versions (stamped, and as the parent commits of the bumps wrote
// them — see TestFormat2IsRefused to TestFormat4IsRefused), and a leaf
// row naming a record outside the table.
func FuzzDecodeTree(f *testing.F) {
	blob, _ := fuzzSeeds(f)
	f.Add(blob)
	f.Add(asVersion1(blob))
	for _, format := range []string{"format2", "format3", "format4"} {
		for _, name := range oldFormatNames {
			old, err := os.ReadFile(filepath.Join("testdata", format, name, treeName))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(old)
		}
	}
	f.Add(withLeafRecord(f, blob, firstRecordLeaf(f), 4))
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:len(blob)-17])
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)-1] ^= 0x80 // inside the sealed trailer
	f.Add(flipped)
	wrongMagic := append([]byte(nil), blob...)
	wrongMagic[0] = 'X'
	f.Add(wrongMagic)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		d, err := decodeTree(data)
		if (d == nil) == (err == nil) {
			t.Fatalf("decode returned (%v, %v)", d, err)
		}
	})
}

// FuzzDecodeManifest does the same for the manifest decoder, seeding an
// edited-epoch variant (which must fail its self-hash) alongside the
// truncation and magic shapes.
func FuzzDecodeManifest(f *testing.F) {
	_, man := fuzzSeeds(f)
	f.Add(man)
	f.Add(man[:len(man)/2])
	editedEpoch := append([]byte(nil), man...)
	// The epoch u64 sits after magic(4) + version(4) + kind(1).
	binary.BigEndian.PutUint64(editedEpoch[9:], 42)
	f.Add(editedEpoch)
	wrongMagic := append([]byte(nil), man...)
	wrongMagic[0] = 'X'
	f.Add(wrongMagic)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		m, err := decodeManifest(data)
		if (m == nil) == (err == nil) {
			t.Fatalf("decode returned (%v, %v)", m, err)
		}
	})
}
