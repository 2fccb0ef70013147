// Package analysis is the repo's static-analysis plane: a dependency-free
// analyzer framework (stdlib go/ast + go/parser + go/types only, matching
// the no-deps style of the rest of the tree) that mechanizes the
// correctness invariants PR 1–9 established by hand — deterministic
// iteration in the byte-identical build plane, bounded wire-decode
// integer conversions, wrapped-error-safe sentinel checks, honest
// context threading, and atomic-field access discipline.
//
// An Analyzer inspects one type-checked package (a Pass) and reports
// Diagnostics carrying exact file:line:col positions. The vqlint command
// (cmd/vqlint) is the multichecker that loads every package in the tree,
// runs the registered analyzers, and exits nonzero on findings; findings
// are suppressed line-by-line with
//
//	//lint:ignore <name>[,<name>...] <reason>
//
// (same line or the line below the directive) or file-wide with
// //lint:file-ignore. A directive without a reason is itself a
// diagnostic: every suppression documents why the invariant does not
// apply. See docs/LINT.md for the invariant catalogue.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Run inspects the Pass and reports
// findings through pass.Report; it returns an error only for internal
// failures (a nil type in a position the loader guarantees, say), never
// for findings.
type Analyzer struct {
	Name string // short lowercase identifier, used in directives and output
	Doc  string // one-line description of the invariant
	Run  func(pass *Pass) error
}

// Pass is one analyzer's view of one loaded package: the syntax trees,
// the type information, and the diagnostic sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// PathBase returns the final element of the package path — the name
// scoped analyzers (mapdeterminism, wirebounds) key their package
// allowlists on.
func (p *Pass) PathBase() string {
	path := p.Pkg.Path()
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil when the expression has
// none recorded (a bare package name, say).
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Diagnostic is one finding: which analyzer, where, and what.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic in the conventional
// file:line:col: analyzer: message shape.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package, filters the findings
// through the packages' lint:ignore directives, and returns the
// survivors sorted by position. Malformed directives (no reason, or no
// analyzer name) surface as diagnostics of the pseudo-analyzer
// "directive" — a suppression that does not document itself is a
// finding, not an escape hatch.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		ig, bad := directives(pkg.Fset, pkg.Files)
		out = append(out, bad...)
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &raw,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Types.Path(), err)
			}
		}
		for _, d := range raw {
			if !ig.suppressed(d) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}
