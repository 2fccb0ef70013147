// Package lp implements a small dense two-phase primal simplex solver for
// linear programs over free (sign-unrestricted) variables:
//
//	maximize  C·x   subject to   A x <= B.
//
// It is the geometric workhorse behind the n-dimensional I-tree: deciding
// whether an intersection hyperplane f_i - f_j = 0 splits a subdomain
// region reduces to maximizing and minimizing (f_i - f_j)(X) over the
// region's halfspace description, and finding a witness point interior to
// a region is a Chebyshev-style slack-maximization LP.
//
// The problems this package sees are tiny (a handful of variables, tens of
// constraints), so the implementation favors clarity and robustness —
// dense tableau, Bland's anti-cycling rule — over sparse-matrix
// performance.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means the constraint set is empty.
	Infeasible
	// Unbounded means the objective is unbounded above on the feasible set.
	Unbounded
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("lp.Status(%d)", int(s))
	}
}

// Problem is a linear program: maximize C·x subject to A x <= B, with x
// free (each variable may take any real value).
type Problem struct {
	// C is the objective vector; its length fixes the variable count.
	C []float64
	// A holds one row per constraint; every row must have len(C) entries.
	A [][]float64
	// B holds the constraint right-hand sides; len(B) must equal len(A).
	B []float64
}

// Result is the outcome of Solve.
type Result struct {
	Status    Status
	X         []float64 // an optimal point when Status == Optimal
	Objective float64   // C·X when Status == Optimal
}

// eps is the absolute tolerance used for pivot and optimality tests. The
// inputs in this codebase are well-scaled (attribute values and weights of
// moderate magnitude), so an absolute tolerance suffices.
const eps = 1e-9

// maxIters bounds the pivot count as a defensive backstop; Bland's rule
// already guarantees termination.
const maxIters = 100000

// ErrTooManyIterations is returned if the pivot cap is hit, which indicates
// a numerically pathological input rather than a normal outcome.
var ErrTooManyIterations = errors.New("lp: iteration limit exceeded")

// Solve runs two-phase simplex on p. The error is non-nil only for
// malformed input or the (defensive) iteration cap; Infeasible and
// Unbounded are reported via Result.Status with a nil error.
func Solve(p Problem) (Result, error) {
	nv := len(p.C)
	m := len(p.A)
	if len(p.B) != m {
		return Result{}, fmt.Errorf("lp: %d constraint rows but %d right-hand sides", m, len(p.B))
	}
	for i, row := range p.A {
		if len(row) != nv {
			return Result{}, fmt.Errorf("lp: constraint %d has %d coefficients, want %d", i, len(row), nv)
		}
	}

	// Columns: [0,nv) x+, [nv,2nv) x-, [2nv,2nv+m) slacks, then one
	// artificial per negative-RHS row. RHS is stored separately.
	ncore := 2*nv + m
	type rowT struct {
		a   []float64
		rhs float64
	}
	var artRows []int
	for i := range p.A {
		if p.B[i] < 0 {
			artRows = append(artRows, i)
		}
	}
	na := len(artRows)
	ncols := ncore + na

	rows := make([][]float64, m)
	rhs := make([]float64, m)
	basis := make([]int, m)
	artOf := make(map[int]int, na) // row index -> artificial column
	for k, i := range artRows {
		artOf[i] = ncore + k
	}
	for i := 0; i < m; i++ {
		r := make([]float64, ncols)
		for j := 0; j < nv; j++ {
			r[j] = p.A[i][j]
			r[nv+j] = -p.A[i][j]
		}
		r[2*nv+i] = 1 // slack
		b := p.B[i]
		if b < 0 {
			// Negate the row so the RHS is nonnegative, then add an
			// artificial basic variable.
			for j := range r {
				r[j] = -r[j]
			}
			b = -b
			ac := artOf[i]
			r[ac] = 1
			basis[i] = ac
		} else {
			basis[i] = 2*nv + i
		}
		rows[i] = r
		rhs[i] = b
	}

	t := &tableau{rows: rows, rhs: rhs, basis: basis, ncols: ncols}

	// Phase 1: maximize -(sum of artificials); optimum 0 iff feasible.
	if na > 0 {
		obj := make([]float64, ncols)
		for _, i := range artRows {
			obj[artOf[i]] = -1
		}
		z, err := t.optimize(obj)
		if err != nil {
			return Result{}, err
		}
		if z < -eps {
			return Result{Status: Infeasible}, nil
		}
		// Drive any artificial variables still basic (at value 0) out of
		// the basis, or drop their rows if they are redundant.
		if err := t.purgeArtificials(ncore); err != nil {
			return Result{}, err
		}
		// Forbid artificial columns from re-entering by zeroing them.
		for i := range t.rows {
			for j := ncore; j < ncols; j++ {
				t.rows[i][j] = 0
			}
		}
	}

	// Phase 2: the real objective over the split variables.
	obj := make([]float64, ncols)
	for j := 0; j < nv; j++ {
		obj[j] = p.C[j]
		obj[nv+j] = -p.C[j]
	}
	z, err := t.optimize(obj)
	if err != nil {
		if errors.Is(err, errUnbounded) {
			return Result{Status: Unbounded}, nil
		}
		return Result{}, err
	}

	// Extract x = x+ - x-.
	val := make([]float64, ncols)
	for i, b := range t.basis {
		val[b] = t.rhs[i]
	}
	x := make([]float64, nv)
	for j := 0; j < nv; j++ {
		x[j] = val[j] - val[nv+j]
	}
	return Result{Status: Optimal, X: x, Objective: z}, nil
}

var errUnbounded = errors.New("lp: unbounded")

// tableau is a dense simplex tableau with the RHS held separately.
type tableau struct {
	rows  [][]float64
	rhs   []float64
	basis []int
	ncols int
}

// optimize maximizes obj over the current basic feasible solution using
// Bland's rule and returns the optimal objective value. It mutates the
// tableau in place. errUnbounded is returned when no leaving row exists.
func (t *tableau) optimize(obj []float64) (float64, error) {
	// Reduce the objective against the current basis.
	red := make([]float64, t.ncols)
	copy(red, obj)
	var z float64
	for i, b := range t.basis {
		c := red[b]
		if c == 0 {
			continue
		}
		z += float64(c * t.rhs[i])
		for j := range red {
			red[j] -= float64(c * t.rows[i][j])
		}
	}

	for iter := 0; iter < maxIters; iter++ {
		// Bland's rule: entering column is the lowest index with a
		// positive reduced cost.
		enter := -1
		for j := 0; j < t.ncols; j++ {
			if red[j] > eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return z, nil // optimal
		}
		// Ratio test; ties broken by the smallest basis variable index
		// (the second half of Bland's rule).
		leave := -1
		best := math.Inf(1)
		for i := range t.rows {
			a := t.rows[i][enter]
			if a <= eps {
				continue
			}
			r := t.rhs[i] / a
			if r < best-eps || (r < best+eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
				best = r
				leave = i
			}
		}
		if leave < 0 {
			return 0, errUnbounded
		}
		z += float64(red[enter] * best)
		t.pivot(leave, enter)
		// Update reduced costs for the pivot.
		c := red[enter]
		if c != 0 {
			for j := range red {
				red[j] -= float64(c * t.rows[leave][j])
			}
			red[enter] = 0
		}
	}
	return 0, ErrTooManyIterations
}

// pivot makes column enter basic in row leave via Gaussian elimination.
func (t *tableau) pivot(leave, enter int) {
	pr := t.rows[leave]
	pv := pr[enter]
	inv := 1 / pv
	for j := range pr {
		pr[j] *= inv
	}
	t.rhs[leave] *= inv
	pr[enter] = 1 // guard against roundoff
	for i := range t.rows {
		if i == leave {
			continue
		}
		f := t.rows[i][enter]
		if f == 0 {
			continue
		}
		row := t.rows[i]
		for j := range row {
			row[j] -= float64(f * pr[j])
		}
		row[enter] = 0
		t.rhs[i] -= float64(f * t.rhs[leave])
	}
	t.basis[leave] = enter
}

// purgeArtificials pivots out artificial variables that remain basic at
// value zero after phase 1, deleting redundant all-zero rows.
func (t *tableau) purgeArtificials(ncore int) error {
	for i := 0; i < len(t.rows); i++ {
		if t.basis[i] < ncore {
			continue
		}
		// Find any structural column to pivot on.
		enter := -1
		for j := 0; j < ncore; j++ {
			if math.Abs(t.rows[i][j]) > eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			// Redundant constraint; remove the row.
			t.rows = append(t.rows[:i], t.rows[i+1:]...)
			t.rhs = append(t.rhs[:i], t.rhs[i+1:]...)
			t.basis = append(t.basis[:i], t.basis[i+1:]...)
			i--
			continue
		}
		t.pivot(i, enter)
	}
	return nil
}

// Maximize is a convenience wrapper: it maximizes c·x subject to Ax <= b.
func Maximize(c []float64, a [][]float64, b []float64) (Result, error) {
	return Solve(Problem{C: c, A: a, B: b})
}

// Minimize minimizes c·x subject to Ax <= b by maximizing -c·x. The
// returned Objective is the minimum value of c·x.
func Minimize(c []float64, a [][]float64, b []float64) (Result, error) {
	neg := make([]float64, len(c))
	for i, v := range c {
		neg[i] = -v
	}
	res, err := Solve(Problem{C: neg, A: a, B: b})
	if err != nil || res.Status != Optimal {
		return res, err
	}
	res.Objective = -res.Objective
	return res, nil
}
