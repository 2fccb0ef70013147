package verify_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestClosureReachesNoBuilder keeps the client's trusted code small:
// neither the verifier nor the wire codec a client decodes with may
// compile in a package that builds, walks or shards trees.
func TestClosureReachesNoBuilder(t *testing.T) {
	builders := []string{"core", "itree", "sweep", "lp", "pool", "shard", "mesh"}
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
