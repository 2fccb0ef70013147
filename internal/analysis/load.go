// Package loading: parse + type-check straight from source with no
// tooling beyond the standard library. Module packages resolve against
// the go.mod module path under the repo root; standard-library imports
// resolve against GOROOT/src (with the GOROOT vendor fallback), so the
// loader needs neither export data nor a `go list` subprocess — the
// same no-deps discipline the rest of the tree follows.

package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one fully loaded package: syntax with comments, the
// type-checked package object, and the use/def/selection maps the
// analyzers key on.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages, memoizing every import so a
// whole-tree run checks each dependency (the standard library included)
// exactly once.
type Loader struct {
	fset    *token.FileSet
	ctxt    build.Context
	root    string // module root directory ("" = fixture loader, stdlib imports only)
	modpath string // module path from go.mod
	imports map[string]*types.Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at the module directory holding
// go.mod. With moduleRoot == "" the loader resolves standard-library
// imports only — enough for the self-contained fixture packages under
// each analyzer's testdata.
func NewLoader(moduleRoot string) (*Loader, error) {
	l := &Loader{
		fset:    token.NewFileSet(),
		ctxt:    build.Default,
		imports: map[string]*types.Package{},
		loading: map[string]bool{},
	}
	// Pure-Go file selection: cgo variants import "C", which no source
	// loader can type-check, and every package the tree uses has a
	// pure-Go fallback.
	l.ctxt.CgoEnabled = false
	if moduleRoot == "" {
		return l, nil
	}
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	l.root = abs
	mod, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: module root %s: %w", moduleRoot, err)
	}
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			l.modpath = strings.TrimSpace(rest)
			break
		}
	}
	if l.modpath == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", moduleRoot)
	}
	return l, nil
}

// LoadDir loads the single package in dir as an analysis target. The
// package path defaults to the module-relative import path when dir
// sits under the module root, and to the directory base otherwise
// (fixture packages) — scoped analyzers key on its final element.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := filepath.Base(abs)
	if l.root != "" {
		if rel, err := filepath.Rel(l.root, abs); err == nil && !strings.HasPrefix(rel, "..") {
			if rel == "." {
				path = l.modpath
			} else {
				path = l.modpath + "/" + filepath.ToSlash(rel)
			}
		}
	}
	return l.check(abs, path, true)
}

// LoadTree walks root and loads every package directory in it,
// skipping testdata (analyzer fixtures contain deliberate violations)
// and dot-directories. The result is sorted by package path.
func (l *Loader) LoadTree(root string) ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				continue // not a package directory
			}
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// Import implements types.Importer for the checker's dependencies:
// module-internal packages by module-path prefix, "unsafe" specially,
// and everything else from GOROOT/src with the vendor fallback.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.imports[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, err := l.dirOf(path)
	if err != nil {
		return nil, err
	}
	pkg, err := l.check(dir, path, false)
	if err != nil {
		return nil, err
	}
	l.imports[path] = pkg.Types
	return pkg.Types, nil
}

// dirOf maps an import path to its source directory.
func (l *Loader) dirOf(path string) (string, error) {
	if l.root != "" && (path == l.modpath || strings.HasPrefix(path, l.modpath+"/")) {
		return filepath.Join(l.root, strings.TrimPrefix(path, l.modpath)), nil
	}
	goroot := l.ctxt.GOROOT
	for _, dir := range []string{
		filepath.Join(goroot, "src", filepath.FromSlash(path)),
		filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path)),
	} {
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("analysis: cannot resolve import %q (not under the module or GOROOT)", path)
}

// check parses the build-constrained non-test files of one directory
// and type-checks them. Analysis targets (full == true) retain syntax
// and the Info maps; dependency imports keep only the types.Package.
func (l *Loader) check(dir, path string, full bool) (*Package, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	mode := parser.SkipObjectResolution
	if full {
		mode |= parser.ParseComments
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var info *types.Info
	if full {
		info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Instances:  map[*ast.Ident]types.Instance{},
		}
	}
	var terrs []error
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", l.ctxt.GOARCH),
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(terrs) > 0 {
		const show = 5
		msgs := make([]string, 0, show)
		for _, e := range terrs[:min(len(terrs), show)] {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("analysis: type-checking %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	return &Package{Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}
