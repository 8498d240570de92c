package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked unit: a package's files (in-package test
// files included) or an external _test package.
type Package struct {
	Path     string // import path ("<mod>/internal/foo", ext tests "<path>_test")
	Name     string
	Dir      string
	Fset     *token.FileSet
	Files    []*ast.File
	TestFile map[*ast.File]bool
	Types    *types.Package
	Info     *types.Info
}

// Loader parses and type-checks every package in a module using only the
// standard library: module-internal imports are resolved recursively from
// source, everything else through go/importer's source importer (the gc
// importer needs pre-built export data, which module builds do not leave
// behind).
type Loader struct {
	Fset *token.FileSet

	root    string
	modPath string
	dirs    map[string]string   // import path -> dir
	pkgs    map[string]*Package // canonical units by import path
	state   map[string]int      // 0 unseen, 1 checking, 2 done
	std     types.Importer
}

const (
	loadUnseen = iota
	loadChecking
	loadDone
)

// LoadModule type-checks every package under root (a directory containing
// go.mod) and returns the units in deterministic path order, external test
// packages after their subjects. Any parse or type error aborts the load.
func LoadModule(root string) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Fset:    token.NewFileSet(),
		root:    root,
		modPath: modPath,
		dirs:    make(map[string]string),
		pkgs:    make(map[string]*Package),
		state:   make(map[string]int),
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	if err := l.discover(); err != nil {
		return nil, err
	}

	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	var out []*Package
	for _, p := range paths {
		pkg, err := l.check(p)
		if err != nil {
			return nil, err
		}
		if pkg == nil { // directory without buildable files
			continue
		}
		out = append(out, pkg)
		ext, err := l.checkExternalTests(pkg)
		if err != nil {
			return nil, err
		}
		if ext != nil {
			out = append(out, ext)
		}
	}
	return out, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// discover maps every directory under the module root that contains Go
// files to its import path, skipping testdata, vendor, and hidden trees.
func (l *Loader) discover() error {
	return filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return err
		}
		imp := l.modPath
		if rel != "." {
			imp = l.modPath + "/" + filepath.ToSlash(rel)
		}
		l.dirs[imp] = dir
		return nil
	})
}

// parseDir parses dir's Go files. With extTests false it returns the
// canonical unit (package files plus in-package tests); with extTests true
// it returns only the external "_test" package's files.
func (l *Loader) parseDir(dir string, extTests bool) (files []*ast.File, testFile map[*ast.File]bool, name string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, "", err
	}
	testFile = make(map[*ast.File]bool)
	for _, e := range entries {
		fn := e.Name()
		if e.IsDir() || !strings.HasSuffix(fn, ".go") ||
			strings.HasPrefix(fn, ".") || strings.HasPrefix(fn, "_") {
			continue
		}
		full := filepath.Join(dir, fn)
		f, err := parser.ParseFile(l.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, "", err
		}
		if buildExcluded(f) {
			continue
		}
		isTest := strings.HasSuffix(fn, "_test.go")
		isExt := isTest && strings.HasSuffix(f.Name.Name, "_test")
		if isExt != extTests {
			continue
		}
		if name == "" {
			name = f.Name.Name
		} else if f.Name.Name != name {
			return nil, nil, "", fmt.Errorf("analysis: %s: found packages %s and %s", dir, name, f.Name.Name)
		}
		files = append(files, f)
		testFile[f] = isTest
	}
	return files, testFile, name, nil
}

// buildExcluded reports whether a file's //go:build line rules it out of
// the default build — e.g. the `//go:build race` / `//go:build !race`
// test-constant pairs. Tags satisfied mirror a plain `go build`: GOOS,
// GOARCH, the gc toolchain, and go1.x release tags; anything else
// ("race", "ignore", custom tags) evaluates false, so exactly one file
// of a tag pair survives and redeclaration errors cannot arise.
func buildExcluded(f *ast.File) bool {
	for _, g := range f.Comments {
		if g.Pos() >= f.Package {
			break
		}
		for _, c := range g.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return false
			}
			return !expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH ||
					tag == "gc" || strings.HasPrefix(tag, "go1")
			})
		}
	}
	return false
}

// check returns the canonical type-checked unit for a module import path,
// loading it (and, recursively, its module-internal imports) on demand.
func (l *Loader) check(path string) (*Package, error) {
	switch l.state[path] {
	case loadDone:
		return l.pkgs[path], nil
	case loadChecking:
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	dir, ok := l.dirs[path]
	if !ok {
		return nil, fmt.Errorf("analysis: package %s not found in module", path)
	}
	l.state[path] = loadChecking
	files, testFile, name, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		l.state[path] = loadDone
		return nil, nil
	}
	pkg := &Package{Path: path, Name: name, Dir: dir, Files: files, TestFile: testFile}
	if err := l.typeCheck(pkg); err != nil {
		return nil, err
	}
	l.state[path] = loadDone
	l.pkgs[path] = pkg
	return pkg, nil
}

// checkExternalTests builds the "pkg_test" unit for a canonical package,
// if the directory has one.
func (l *Loader) checkExternalTests(pkg *Package) (*Package, error) {
	files, testFile, name, err := l.parseDir(pkg.Dir, true)
	if err != nil || len(files) == 0 {
		return nil, err
	}
	ext := &Package{Path: pkg.Path + "_test", Name: name, Dir: pkg.Dir, Files: files, TestFile: testFile}
	if err := l.typeCheck(ext); err != nil {
		return nil, err
	}
	return ext, nil
}

func (l *Loader) typeCheck(pkg *Package) error {
	pkg.Fset = l.Fset
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		// Instances record generic instantiations; the call graph folds them
		// onto their origin declarations via (*types.Func).Origin.
		Instances: make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(pkg.Path, l.Fset, pkg.Files, pkg.Info)
	if err != nil {
		return fmt.Errorf("analysis: %s: %w", pkg.Path, err)
	}
	pkg.Types = tp
	return nil
}

// Import implements types.Importer: module-internal paths resolve through
// the loader itself, everything else through the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if l.modPath != "" && (path == l.modPath || strings.HasPrefix(path, l.modPath+"/")) {
		pkg, err := l.check(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analysis: no Go files for %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
