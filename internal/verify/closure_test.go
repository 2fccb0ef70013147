package verify_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestClosureReachesNoBuilder keeps the client's trusted code small:
// neither the verifier nor the wire codec a client decodes with may
// compile in a package that builds, walks or shards trees, writes their
// proofs, or signs.
func TestClosureReachesNoBuilder(t *testing.T) {
	builders := []string{"core", "itree", "sweep", "lp", "pool", "shard", "mesh", "fmh", "mhtree", "sig"}
	for _, pkg := range []string{"aqverify/internal/verify", "aqverify/internal/wire"} {
		out, err := exec.Command("go", "list", "-deps", pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", pkg, err)
		}
		for _, dep := range strings.Fields(string(out)) {
			if name, ok := strings.CutPrefix(dep, "aqverify/internal/"); ok && slices.Contains(builders, name) {
				t.Errorf("%s reaches %s", pkg, dep)
			}
		}
	}
}

// TestTrustedBaseIsANumber holds the client's trusted code to a ceiling:
// the module packages `go list -deps` reaches from the verifier and from
// the wire codec, and their non-test lines counted by scripts/loc.sh's
// rule. A change may lower a ceiling; one that raises it says why.
func TestTrustedBaseIsANumber(t *testing.T) {
	for _, c := range []struct {
		pkg             string
		maxPkgs, maxLOC int
	}{
		{"aqverify/internal/verify", 9, 2555},
		{"aqverify/internal/wire", 10, 3310},
	} {
		out, err := exec.Command("go", "list", "-deps", "-f", "{{if not .Standard}}{{.Dir}}{{end}}", c.pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", c.pkg, err)
		}
		dirs := strings.Fields(string(out))
		loc := 0
		for _, dir := range dirs {
			files, err := filepath.Glob(filepath.Join(dir, "*.go"))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				if strings.HasSuffix(f, "_test.go") {
					continue
				}
				b, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				loc += bytes.Count(b, []byte{'\n'})
			}
		}
		t.Logf("%s: %d packages, %d non-test lines", c.pkg, len(dirs), loc)
		if len(dirs) > c.maxPkgs || loc > c.maxLOC {
			t.Errorf("%s closure is %d packages / %d lines, above the ceiling of %d / %d",
				c.pkg, len(dirs), loc, c.maxPkgs, c.maxLOC)
		}
	}
}
