// Package wirebounds flags int(...) conversions of unsigned words
// decoded from untrusted bytes (internal/codec, the wire, artifact and
// geometry decoders that read through it, record's hand-written decoder
// and verify's key decoder) that lack a bounds guard. On a 32-bit platform int(u32max) wraps
// negative, so an unguarded conversion lets a forged count, index or
// shard word slip past a later `>= limit` check — the overflow class
// PR 5 and PR 8 fixed by hand and pinned under GOARCH=386.
//
// A conversion counts as guarded when the unsigned source, or the
// variable the converted value is assigned to, appears in a magnitude
// comparison somewhere in the same function: the codebase's two
// idioms are the pre-conversion `if v > limit` guard and the
// post-conversion `if n < 0 || n > len(buf)` check, and both credit
// the conversion. Comparing through a widening uint64(...) conversion
// also credits (`uint64(p) >= uint64(n)` cannot wrap); comparing an
// already-narrowed int(...) operand does not, because that comparison
// is itself the bug on 32-bit. Conversions of constants and of
// mask-bounded expressions (`int(v & 0xffff)`) are always safe.
package wirebounds

import (
	"go/ast"
	"go/token"
	"go/types"

	"aqverify/internal/analysis"
)

// scope: the packages that decode attacker-controlled bytes — the
// shared reader, its three users, record's hand-written decoder, and
// verify's key decoder (a server's /params, an artifact manifest).
var scope = map[string]bool{
	"codec":    true,
	"wire":     true,
	"artifact": true,
	"geometry": true,
	"record":   true,
	"verify":   true,
}

// Analyzer flags unguarded int conversions of decoded unsigned words.
var Analyzer = &analysis.Analyzer{
	Name: "wirebounds",
	Doc:  "int(...) of a decoded u32/u64 word without a dominating bounds guard (wraps negative on 32-bit)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !scope[pass.PathBase()] {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

// checkFunc inspects one function body: first collect every object
// credited by a magnitude comparison, then audit each int conversion
// of an unsigned source against the credited set.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	credited := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			creditOperand(pass, credited, be.X)
			creditOperand(pass, credited, be.Y)
		}
		return true
	})

	// Parent-tracked walk so a conversion can find the assignment that
	// names its result.
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		if tv, ok := pass.Info.Types[call.Fun]; !ok || !tv.IsType() || !isInt(tv.Type) {
			return true
		}
		arg := ast.Unparen(call.Args[0])
		at := pass.TypeOf(arg)
		if at == nil || !isUnsignedWord(at) {
			return true
		}
		if alwaysBounded(pass, arg) {
			return true
		}
		if guarded(pass, credited, arg) || resultCredited(pass, credited, call, stack) {
			return true
		}
		pass.Reportf(call.Pos(), "int(...) of decoded %s value without a dominating bounds guard: wraps negative on 32-bit; compare the unsigned word against a limit (or the converted value against 0) first",
			at.String())
		return true
	})
}

// isInt reports whether t is the basic type int.
func isInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int
}

// isUnsignedWord reports whether t is an unsigned integer wide enough
// to wrap a 32-bit int (uintptr excluded: file descriptors and sizes
// from the OS are not wire data).
func isUnsignedWord(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Uint32, types.Uint64, types.Uint:
		return true
	}
	return false
}

// creditOperand records the objects a comparison operand vouches for:
// a bare identifier or selector, or one seen through a widening
// conversion that cannot wrap. A narrowing int(...) operand credits
// nothing — that comparison is exactly the 32-bit bug.
func creditOperand(pass *analysis.Pass, credited map[types.Object]bool, e ast.Expr) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pass.Info.Uses[e]; obj != nil {
			credited[obj] = true
		}
	case *ast.SelectorExpr:
		if obj := pass.Info.Uses[e.Sel]; obj != nil {
			credited[obj] = true
		}
	case *ast.CallExpr:
		if len(e.Args) != 1 {
			return
		}
		tv, ok := pass.Info.Types[e.Fun]
		if !ok || !tv.IsType() {
			return
		}
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && (b.Kind() == types.Uint64 ||
			(b.Kind() == types.Int64 && is32(pass.TypeOf(e.Args[0])))) {
			creditOperand(pass, credited, e.Args[0])
		}
	}
}

// is32 reports whether t is a 32-bit-or-narrower unsigned type, for
// which a widening int64 conversion is exact.
func is32(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Uint8, types.Uint16, types.Uint32:
		return true
	}
	return false
}

// guarded reports whether any unsigned variable inside the conversion
// argument is credited by a comparison.
func guarded(pass *analysis.Pass, credited map[types.Object]bool, arg ast.Expr) bool {
	found := false
	ast.Inspect(arg, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := pass.Info.Uses[n]; obj != nil && credited[obj] {
				if v, ok := obj.(*types.Var); ok && isUnsignedWord(v.Type()) {
					found = true
				}
			}
		case *ast.SelectorExpr:
			if obj := pass.Info.Uses[n.Sel]; obj != nil && credited[obj] {
				if v, ok := obj.(*types.Var); ok && isUnsignedWord(v.Type()) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// alwaysBounded reports conversions that cannot overflow regardless of
// input: constant arguments and expressions masked by a constant.
func alwaysBounded(pass *analysis.Pass, arg ast.Expr) bool {
	if tv, ok := pass.Info.Types[arg]; ok && tv.Value != nil {
		return true
	}
	if be, ok := arg.(*ast.BinaryExpr); ok && be.Op == token.AND {
		for _, side := range []ast.Expr{be.X, be.Y} {
			if tv, ok := pass.Info.Types[side]; ok && tv.Value != nil {
				return true
			}
		}
	}
	return false
}

// resultCredited reports whether the conversion is the whole right-hand
// side of an assignment whose left-hand variable is credited by a
// comparison — the post-conversion `n := int(v); if n < 0` idiom.
func resultCredited(pass *analysis.Pass, credited map[types.Object]bool, call *ast.CallExpr, stack []ast.Node) bool {
	// stack[len-1] == call; the enclosing assignment, if any, is the
	// nearest AssignStmt ancestor with the call as a top-level RHS.
	for i := len(stack) - 2; i >= 0; i-- {
		as, ok := stack[i].(*ast.AssignStmt)
		if !ok {
			continue
		}
		if len(as.Lhs) != len(as.Rhs) {
			return false
		}
		for j, rhs := range as.Rhs {
			if ast.Unparen(rhs) != call {
				continue
			}
			switch lhs := ast.Unparen(as.Lhs[j]).(type) {
			case *ast.Ident:
				if obj := pass.Info.Defs[lhs]; obj != nil && credited[obj] {
					return true
				}
				if obj := pass.Info.Uses[lhs]; obj != nil && credited[obj] {
					return true
				}
			case *ast.SelectorExpr:
				if obj := pass.Info.Uses[lhs.Sel]; obj != nil && credited[obj] {
					return true
				}
			}
		}
		return false
	}
	return false
}
