package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// This file is the source-level package loader behind the analysistest
// harness: it typechecks a fixture directory tree without the go build
// graph. Fixture packages may import sibling fixture packages (resolved
// from source, recursively) and the standard library, whose export
// data the gc importer finds through `go list -export` (offline,
// against the local build cache).

// LoadedPackage is one typechecked package ready for runSuite.
type LoadedPackage struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Path  string
}

// Loader typechecks fixture packages under Root, where each import path
// maps to the directory Root/<path>.
type Loader struct {
	Root string

	fset *token.FileSet
	mu   sync.Mutex
	pkgs map[string]*LoadedPackage
	gc   types.Importer
}

func NewLoader(root string) *Loader {
	l := &Loader{
		Root: root,
		fset: token.NewFileSet(),
		pkgs: map[string]*LoadedPackage{},
	}
	l.gc = importer.ForCompiler(l.fset, "gc", nil)
	return l
}

// Load typechecks the fixture package at Root/<path> (memoized).
func (l *Loader) Load(path string) (*LoadedPackage, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.load(path)
}

func (l *Loader) load(path string) (*LoadedPackage, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through fixture %q", path)
		}
		return p, nil
	}
	dir := filepath.Join(l.Root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = nil // cycle marker
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %q has no Go files", path)
	}
	info := newInfo()
	cfg := &types.Config{
		Importer: importerFunc(func(ipath string) (*types.Package, error) {
			if _, err := os.Stat(filepath.Join(l.Root, filepath.FromSlash(ipath))); err == nil {
				dep, err := l.load(ipath)
				if err != nil {
					return nil, err
				}
				return dep.Pkg, nil
			}
			return l.gc.Import(ipath)
		}),
		Sizes: types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking fixture %q: %v", path, err)
	}
	lp := &LoadedPackage{Fset: l.fset, Files: files, Pkg: pkg, Info: info, Path: path}
	l.pkgs[path] = lp
	return lp, nil
}

// newInfo returns the type information the analyzers read.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
