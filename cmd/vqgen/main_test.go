package main

import (
	"path/filepath"
	"strings"
	"testing"

	"aqverify/internal/artifact"
)

// TestDataMatchesGenerated: outsourcing a generated table and
// outsourcing the same table read back from its CSV sign the same
// publication — the CSV is 'g', -1 round-trip exact, so every record,
// the domain and therefore every digest and (with one -keyseed) every
// signature agree. Fingerprints, not artifact content hashes, are
// compared: the CSV header carries column names but not the schema's
// column descriptions, which the blob stores.
func TestDataMatchesGenerated(t *testing.T) {
	dir := t.TempDir()
	a, b, csv := filepath.Join(dir, "A"), filepath.Join(dir, "B"), filepath.Join(dir, "t.csv")
	if err := run([]string{"-kind", "lines", "-n", "200", "-seed", "3", "-keyseed", "7",
		"-outsource", "-artifact", a, "-o", csv}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-data", csv, "-keyseed", "7", "-outsource", "-artifact", b}); err != nil {
		t.Fatal(err)
	}
	info := func(dir string) artifact.Info {
		o, err := artifact.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		return o.Info
	}
	ia, ib := info(a), info(b)
	if len(ia.Fingerprints) != 1 || len(ib.Fingerprints) != 1 || ia.Fingerprints[0] != ib.Fingerprints[0] {
		t.Fatalf("generated table signs %x, its CSV signs %x", ia.Fingerprints, ib.Fingerprints)
	}
}

// TestFlagsValidatedBeforeBuilding: a bad -planner or -mode is refused
// whether or not the run would have reached the code that uses it.
func TestFlagsValidatedBeforeBuilding(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "10", "-planner", "bogus"},
		{"-n", "10", "-mode", "bogus"},
		{"-n", "10", "-outsource", "-artifact", filepath.Join(t.TempDir(), "A"), "-planner", "bogus"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "bogus") {
			t.Errorf("vqgen %v: err %v, want the bad value named", args, err)
		}
	}
}

// TestArtifactHashesArePinned pins the content hash vqgen reports for
// four builds of one n = 2 000 lines table: a change that moves any
// signed byte of a univariate build (an order, a boundary, a tree
// shape, an encoding) moves one of these, and must say why. They moved
// when every univariate IMH-tree became the median split over its
// thresholds (a new shape: every IMH hash and the root signature), and
// last at format 5, when an FMH leaf became one hash of its record's
// encoding (every FMH and IMH digest and every signature; no length).
func TestArtifactHashesArePinned(t *testing.T) {
	base := []string{"-kind", "lines", "-n", "2000", "-seed", "1", "-keyseed", "7", "-outsource"}
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-mode", "multi", "-shards", "2"}, "e4d176acc310"},
		{[]string{"-mode", "multi", "-shards", "4", "-planner", "quantile"}, "4fc07a9d172c"},
		{[]string{"-mode", "multi", "-shards", "4"}, "4593ea214983"},
		{[]string{"-mode", "one"}, "674154729a4c"},
	} {
		dir := filepath.Join(t.TempDir(), "A")
		args := append(append(append([]string(nil), base...), tc.flags...), "-artifact", dir)
		if err := run(args); err != nil {
			t.Fatal(err)
		}
		o, err := artifact.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		got := o.Info.HashHex()[:12]
		o.Close()
		if got != tc.want {
			t.Errorf("vqgen %v: artifact %s, pinned %s", tc.flags, got, tc.want)
		}
	}
}
