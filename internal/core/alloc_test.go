package core

import (
	"testing"

	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/verify"
)

// TestVerifyAllocationsAreFlatInTheWindow pins the client's verify bill:
// a window's records are scored without a funcs.Linear each, and its
// leaf digests, scores, record encodings and the path's or inequalities'
// encoding are built on the stack, so verifying 64 records allocates what
// verifying 4 does — one allocation, the signed digest handed to the
// signature verifier.
func TestVerifyAllocationsAreFlatInTheWindow(t *testing.T) {
	tbl := lineTable(t, 80, 9)
	for _, mode := range []verify.Mode{verify.OneSignature, verify.MultiSignature} {
		tree := build1D(t, tbl, mode)
		pub := tree.Public()
		for _, k := range []int{4, 64} {
			q := query.NewKNN(geometry.Point{0.3}, k, 0)
			ans, err := tree.Process(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := verify.Verify(pub, q, ans.Records, &ans.VO, nil); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Errorf("%v k=%d: %v allocations per verify, want <= 1", mode, k, allocs)
			}
		}
	}
}
