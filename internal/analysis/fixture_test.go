package analysis

import (
	"fmt"
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
)

// The fixture loaders and lookups only the tests use.

// NodeByID returns the node with the given ID, nil if absent.
func (g *Graph) NodeByID(id string) *FuncNode {
	i := sort.Search(len(g.Nodes), func(i int) bool { return g.Nodes[i].ID >= id })
	if i < len(g.Nodes) && g.Nodes[i].ID == id {
		return g.Nodes[i]
	}
	return nil
}

// LoadDir type-checks the single package in dir (used for testdata
// fixtures). Imports resolve from the standard library, plus any
// subdirectories of dir, which a fixture imports as
// "fixture/<name>/<subdir>" (for rules about module-internal packages,
// e.g. RB-O1's obs stand-in).
func LoadDir(dir string) (*Package, error) {
	pkgs, err := LoadDirAll(dir)
	if err != nil {
		return nil, err
	}
	return pkgs[0], nil
}

// LoadDirAll type-checks a fixture directory plus every package in its
// immediate subdirectories, all through one loader (so type objects are
// shared), returning the units with the root fixture package first and
// sub-packages in path order. Whole-module rules (RB-D4, RB-S1, ...) need
// the sub-packages as analysis subjects, not just as resolved imports.
func LoadDirAll(dir string) ([]*Package, error) {
	l := &Loader{
		Fset:  token.NewFileSet(),
		dirs:  map[string]string{},
		pkgs:  make(map[string]*Package),
		state: make(map[string]int),
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	files, testFile, name, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	l.modPath = "fixture/" + name
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var subPaths []string
	for _, e := range entries {
		if e.IsDir() {
			p := l.modPath + "/" + e.Name()
			l.dirs[p] = filepath.Join(dir, e.Name())
			subPaths = append(subPaths, p)
		}
	}
	sort.Strings(subPaths)
	pkg := &Package{Path: l.modPath, Name: name, Dir: dir, Files: files, TestFile: testFile}
	if err := l.typeCheck(pkg); err != nil {
		return nil, err
	}
	l.pkgs[l.modPath] = pkg
	l.state[l.modPath] = loadDone
	out := []*Package{pkg}
	for _, p := range subPaths {
		sub, err := l.check(p) // cached when the root already imported it
		if err != nil {
			return nil, err
		}
		if sub != nil {
			out = append(out, sub)
		}
	}
	return out, nil
}
