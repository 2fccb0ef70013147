// Package mapdeterminism flags `range` over maps inside the
// byte-identical build plane. The construction pipeline promises
// byte-identical output at any worker count (PR 1/4's identity tests),
// which makes map iteration order — randomized per run by the runtime —
// a correctness hazard in every package whose output feeds hashed or
// signed bytes: core, build, itree, fmh and artifact. A map
// range there silently leaks iteration order into subdomain layouts,
// permutation plans or encoded artifacts. Iterate a sorted key slice
// instead, or suppress with //lint:ignore mapdeterminism <reason> when
// the loop provably never observes order (pure counting, say).
package mapdeterminism

import (
	"go/ast"
	"go/types"

	"aqverify/internal/analysis"
)

// scope is the build plane: the packages whose output must be
// byte-identical across runs and worker counts.
var scope = map[string]bool{
	"core":     true,
	"build":    true,
	"itree":    true,
	"fmh":      true,
	"artifact": true,
}

// Analyzer flags nondeterministic map iteration in the build plane.
var Analyzer = &analysis.Analyzer{
	Name: "mapdeterminism",
	Doc:  "range over a map in a byte-identical build-plane package (core, build, itree, fmh, artifact)",
	Run:  run,
}

// keyExtraction recognizes the first half of the sorted-iteration
// idiom — `for k := range m { keys = append(keys, k) }` — a key-only
// range whose single statement appends the key to a slice. The order
// the keys land in is erased by the sort that follows, so the loop is
// order-blind by construction and stays legal without a suppression.
func keyExtraction(rs *ast.RangeStmt) bool {
	if rs.Value != nil || len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	fun, ok := call.Fun.(*ast.Ident)
	return ok && fun.Name == "append"
}

func run(pass *analysis.Pass) error {
	if !scope[pass.PathBase()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if m, ok := t.Underlying().(*types.Map); ok && !keyExtraction(rs) {
				pass.Reportf(rs.Pos(), "range over map %s in build-plane package %s: iteration order is randomized and leaks into hashed output; iterate sorted keys",
					types.TypeString(m, types.RelativeTo(pass.Pkg)), pass.PathBase())
			}
			return true
		})
	}
	return nil
}
