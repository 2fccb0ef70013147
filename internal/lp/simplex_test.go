package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, p Problem) Result {
	t.Helper()
	res, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func TestSolveBasicMaximize(t *testing.T) {
	// maximize x+y s.t. x<=3, y<=4, x+y<=5 -> optimum 5.
	p := Problem{
		C: []float64{1, 1},
		A: [][]float64{{1, 0}, {0, 1}, {1, 1}},
		B: []float64{3, 4, 5},
	}
	res := solveOK(t, p)
	if res.Status != Optimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	if math.Abs(res.Objective-5) > 1e-7 {
		t.Fatalf("objective = %v, want 5", res.Objective)
	}
	if got := res.X[0] + res.X[1]; math.Abs(got-5) > 1e-7 {
		t.Fatalf("x+y = %v, want 5", got)
	}
}

func TestSolveNegativeOptimum(t *testing.T) {
	// Free variables: maximize -x s.t. x >= 2 (i.e. -x <= -2) -> optimum -2.
	p := Problem{
		C: []float64{-1},
		A: [][]float64{{-1}},
		B: []float64{-2},
	}
	res := solveOK(t, p)
	if res.Status != Optimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	if math.Abs(res.Objective-(-2)) > 1e-7 {
		t.Fatalf("objective = %v, want -2", res.Objective)
	}
}

func TestSolveFreeVariablesGoNegative(t *testing.T) {
	// maximize -x - y s.t. x >= -3, y >= -4  -> optimum 7 at (-3,-4).
	p := Problem{
		C: []float64{-1, -1},
		A: [][]float64{{-1, 0}, {0, -1}},
		B: []float64{3, 4},
	}
	res := solveOK(t, p)
	if res.Status != Optimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	if math.Abs(res.Objective-7) > 1e-7 {
		t.Fatalf("objective = %v, want 7", res.Objective)
	}
	if math.Abs(res.X[0]+3) > 1e-7 || math.Abs(res.X[1]+4) > 1e-7 {
		t.Fatalf("X = %v, want (-3,-4)", res.X)
	}
}

func TestSolveInfeasible(t *testing.T) {
	// x <= 1 and x >= 2.
	p := Problem{
		C: []float64{1},
		A: [][]float64{{1}, {-1}},
		B: []float64{1, -2},
	}
	res := solveOK(t, p)
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	// maximize x with only x >= 0.
	p := Problem{
		C: []float64{1},
		A: [][]float64{{-1}},
		B: []float64{0},
	}
	res := solveOK(t, p)
	if res.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestSolveDegenerate(t *testing.T) {
	// Degenerate vertex at origin with redundant constraints; Bland's rule
	// must still terminate at the optimum.
	p := Problem{
		C: []float64{3, 2},
		A: [][]float64{
			{1, 1},
			{1, 1}, // duplicate
			{2, 2}, // scaled duplicate
			{1, 0},
			{0, 1},
			{-1, 0},
			{0, -1},
		},
		B: []float64{4, 4, 8, 3, 3, 0, 0},
	}
	res := solveOK(t, p)
	if res.Status != Optimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	// Optimum: maximize 3x+2y over x,y>=0, x+y<=4, x<=3, y<=3 -> x=3,y=1 -> 11.
	if math.Abs(res.Objective-11) > 1e-7 {
		t.Fatalf("objective = %v, want 11", res.Objective)
	}
}

func TestSolveEqualityViaPair(t *testing.T) {
	// x + y == 2 encoded as <= and >=; maximize x s.t. x <= 5.
	p := Problem{
		C: []float64{1, 0},
		A: [][]float64{{1, 1}, {-1, -1}, {1, 0}},
		B: []float64{2, -2, 5},
	}
	res := solveOK(t, p)
	if res.Status != Optimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	if math.Abs(res.Objective-5) > 1e-7 {
		t.Fatalf("objective = %v, want 5 (y=-3)", res.Objective)
	}
	if math.Abs(res.X[0]+res.X[1]-2) > 1e-7 {
		t.Fatalf("x+y = %v, want 2", res.X[0]+res.X[1])
	}
}

func TestMinimize(t *testing.T) {
	// minimize x+y s.t. x >= 1, y >= 2 -> 3.
	res, err := Minimize(
		[]float64{1, 1},
		[][]float64{{-1, 0}, {0, -1}},
		[]float64{-1, -2},
	)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	if math.Abs(res.Objective-3) > 1e-7 {
		t.Fatalf("objective = %v, want 3", res.Objective)
	}
}

func TestSolveMalformed(t *testing.T) {
	if _, err := Solve(Problem{C: []float64{1}, A: [][]float64{{1, 2}}, B: []float64{1}}); err == nil {
		t.Fatal("want error for ragged constraint row")
	}
	if _, err := Solve(Problem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{}}); err == nil {
		t.Fatal("want error for mismatched B length")
	}
}

func TestSolveNoConstraintsZeroObjective(t *testing.T) {
	res := solveOK(t, Problem{C: []float64{0, 0}})
	if res.Status != Optimal || res.Objective != 0 {
		t.Fatalf("got %+v, want optimal 0", res)
	}
}

// TestSolveAgainstVertexEnumeration cross-checks the simplex against a
// brute-force enumeration of constraint-intersection vertices on random
// bounded 2-D problems.
func TestSolveAgainstVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		// A random box keeps every instance bounded; add a few random cuts.
		a := [][]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
		b := []float64{
			rng.Float64()*10 + 1, rng.Float64()*10 + 1,
			rng.Float64()*10 + 1, rng.Float64()*10 + 1,
		}
		extra := rng.Intn(4)
		for k := 0; k < extra; k++ {
			a = append(a, []float64{rng.NormFloat64(), rng.NormFloat64()})
			b = append(b, rng.NormFloat64()*3)
		}
		c := []float64{rng.NormFloat64(), rng.NormFloat64()}

		want, feasible := bruteForceMax2D(c, a, b)
		res, err := Solve(Problem{C: c, A: a, B: b})
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		if !feasible {
			if res.Status != Infeasible {
				t.Fatalf("trial %d: status %v, brute force says infeasible", trial, res.Status)
			}
			continue
		}
		if res.Status != Optimal {
			t.Fatalf("trial %d: status %v, brute force says feasible (max %v)", trial, res.Status, want)
		}
		if math.Abs(res.Objective-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("trial %d: objective %v, brute force %v (c=%v a=%v b=%v)",
				trial, res.Objective, want, c, a, b)
		}
	}
}

// bruteForceMax2D enumerates all pairwise constraint intersections, keeps
// the feasible ones, and returns the max objective over those vertices.
func bruteForceMax2D(c []float64, a [][]float64, b []float64) (float64, bool) {
	const tol = 1e-7
	best := math.Inf(-1)
	found := false
	for i := 0; i < len(a); i++ {
		for j := i + 1; j < len(a); j++ {
			det := a[i][0]*a[j][1] - a[i][1]*a[j][0]
			if math.Abs(det) < 1e-12 {
				continue
			}
			x := (b[i]*a[j][1] - a[i][1]*b[j]) / det
			y := (a[i][0]*b[j] - b[i]*a[j][0]) / det
			ok := true
			for k := range a {
				if a[k][0]*x+a[k][1]*y > b[k]+tol {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			found = true
			if v := c[0]*x + c[1]*y; v > best {
				best = v
			}
		}
	}
	return best, found
}

func BenchmarkSolveSmall(b *testing.B) {
	p := Problem{
		C: []float64{3, 2, 1},
		A: [][]float64{
			{1, 1, 1}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1},
			{-1, 0, 0}, {0, -1, 0}, {0, 0, -1},
		},
		B: []float64{10, 4, 5, 6, 0, 0, 0},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}
