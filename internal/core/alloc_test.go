package core

import (
	"testing"

	"aqverify/internal/geometry"
	"aqverify/internal/query"
)

// TestVerifyAllocationsAreFlatInTheWindow pins the client's verify bill:
// a window's records are scored without a funcs.Linear each and hashed
// through one encode buffer, so verifying 64 records allocates what
// verifying 4 does — a handful of per-answer slices, nothing per record.
func TestVerifyAllocationsAreFlatInTheWindow(t *testing.T) {
	tbl := lineTable(t, 80, 9)
	for _, mode := range []Mode{OneSignature, MultiSignature} {
		tree := build1D(t, tbl, mode)
		pub := tree.Public()
		for _, k := range []int{4, 64} {
			q := query.NewKNN(geometry.Point{0.3}, k, 0)
			ans, err := tree.Process(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 10 {
				t.Errorf("%v k=%d: %v allocations per verify, want <= 10", mode, k, allocs)
			}
		}
	}
}
