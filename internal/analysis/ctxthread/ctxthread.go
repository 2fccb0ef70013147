// Package ctxthread enforces honest context threading in library code:
// context.Background()/context.TODO() belong in process roots (package
// main) and in the one blessed convenience shape, not in the middle of
// the call graph where they sever the caller's cancellation chain —
// the discipline PR 3–5 threaded through the query, build and wire
// planes. It also flags exported functions that spawn goroutines
// without accepting a context, since their callers have no way to
// bound the work they start.
//
// The exempt shape, checked structurally, is the Ctx-sibling shim — a
// function whose whole body is `return XCtx(context.Background(), ...)`
// delegating to its own Ctx-suffixed variant (mesh.Build →
// mesh.BuildCtx), the documented no-cancellation convenience form.
//
// Anything else either threads the caller's ctx or carries a
// //lint:ignore ctxthread <reason> naming why the context chain
// legitimately ends there (a process-lifetime background prober, say).
package ctxthread

import (
	"go/ast"
	"go/types"

	"aqverify/internal/analysis"
)

// Analyzer flags severed context chains in library code.
var Analyzer = &analysis.Analyzer{
	Name: "ctxthread",
	Doc:  "context.Background()/TODO() in library code, or exported goroutine-spawning functions without a ctx parameter",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil // process roots own the root context
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !ctxShim(fd) {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if name := contextRootCall(pass, call); name != "" {
							pass.Reportf(call.Pos(), "context.%s() severs the caller's cancellation chain in library code; thread a ctx parameter (or delegate from a Ctx-sibling shim)", name)
						}
					}
					return true
				})
			}
			if fd.Name.IsExported() && !hasCtxParam(pass, fd) && spawns(fd.Body) {
				pass.Reportf(fd.Pos(), "exported %s spawns goroutines but has no context.Context parameter; callers cannot bound the work it starts", fd.Name.Name)
			}
		}
	}
	return nil
}

// contextRootCall returns "Background" or "TODO" when call is
// context.Background() or context.TODO(), resolved through the type
// info so import renames are handled.
func contextRootCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "context" {
		return sel.Sel.Name
	}
	return ""
}

// ctxShim recognizes the blessed no-cancellation convenience shape: a
// body that is exactly `return <Name>Ctx(context.Background(), ...)`
// (function or method call), delegating to the function's own
// Ctx-suffixed sibling.
func ctxShim(fd *ast.FuncDecl) bool {
	if len(fd.Body.List) != 1 {
		return false
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	var callee string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		callee = fun.Name
	case *ast.SelectorExpr:
		callee = fun.Sel.Name
	default:
		return false
	}
	return callee == fd.Name.Name+"Ctx"
}

// hasCtxParam reports whether any parameter is a context.Context.
func hasCtxParam(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		t := pass.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context" {
				return true
			}
		}
	}
	return false
}

// spawns reports whether the body contains a go statement at any
// depth (function literals included: a literal declared here is
// overwhelmingly started here).
func spawns(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			found = true
		}
		return !found
	})
	return found
}
