package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ModuleAnalyzerUnreached (RB-U1) reports every non-test function that no
// entry point reaches. The entry points are derived from the module, with
// no configuration: each main package's main, every init, every function
// a package-level initializer references (kernel tables, handler maps),
// the exported functions of the public packages (neither internal nor
// main), and the exported methods of every module type the public API
// exposes, closed over exported fields and method signatures.
//
// The walk follows the call graph plus one edge kind the shared graph
// does not model: a reached function that converts a value of a concrete
// module type to an interface (fmt's ...any arguments, a types.Importer
// field) reaches the value's exported methods, since whoever holds the
// interface, the standard library included, may assert it to any
// interface and call them. That is how String methods only fmt calls count
// as reached.
//
// Test files are never roots and never findings. A module with no main
// package has no program to reach from, so the rule stays silent there.
var ModuleAnalyzerUnreached = &ModuleAnalyzer{
	ID:  "RB-U1",
	Doc: "every non-test function is reached from a main, an init, a package-level initializer or the public API",
	Run: runUnreached,
}

func runUnreached(mp *ModulePass) {
	roots := unreachedRoots(mp)
	if roots == nil {
		return
	}
	reached := reachWithBoxing(mp.Graph, roots)
	for _, n := range mp.Graph.Nodes {
		if !n.Test && !reached[n] {
			mp.Report(n.Decl.Pos(), "%s is reached by no entry point (main, init, package initializer or public API)", n.ID)
		}
	}
}

// unreachedRoots collects the entry points, or nil when the module has no
// main package.
func unreachedRoots(mp *ModulePass) []*FuncNode {
	g := mp.Graph
	exp := &exposure{module: make(map[*types.Package]bool), seen: make(map[types.Type]bool)}
	public := make(map[*Package]bool)
	hasMain := false
	for _, pkg := range mp.Pkgs {
		exp.module[pkg.Types] = true
		if strings.HasSuffix(pkg.Path, "_test") {
			continue
		}
		hasMain = hasMain || pkg.Name == "main"
		public[pkg] = pkg.Name != "main" && !internalPath(pkg.Path)
	}
	if !hasMain {
		return nil
	}
	var roots []*FuncNode
	for _, n := range g.Nodes {
		name := n.Decl.Name.Name
		if !n.Test && n.Decl.Recv == nil &&
			(name == "init" || name == "main" && n.Pkg.Name == "main" || public[n.Pkg] && ast.IsExported(name)) {
			roots = append(roots, n)
		}
	}
	for _, pkg := range mp.Pkgs {
		isPublic, ok := public[pkg]
		if !ok {
			continue
		}
		if isPublic {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				if obj := scope.Lookup(name); obj.Exported() {
					exp.add(obj.Type())
				}
			}
		}
		for _, f := range pkg.Files {
			if pkg.TestFile[f] {
				continue
			}
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					roots = append(roots, initializerRefs(g, pkg.Info, gd)...)
					for _, t := range boxedTypes(pkg.Info, gd, nil) {
						roots = append(roots, exportedMethodNodes(g, t)...)
					}
				}
			}
		}
	}
	for _, t := range exp.named {
		roots = append(roots, exportedMethodNodes(g, types.NewPointer(t))...)
	}
	return roots
}

// internalPath reports whether an import path has an internal segment.
func internalPath(path string) bool {
	return strings.Contains("/"+path+"/", "/internal/")
}

// initializerRefs returns the module functions a package-level var
// declaration names, function literals' bodies included.
func initializerRefs(g *Graph, info *types.Info, decl ast.Node) []*FuncNode {
	var out []*FuncNode
	ast.Inspect(decl, func(node ast.Node) bool {
		if id, ok := node.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				out = append(out, g.NodeOf(fn))
			}
		}
		return true
	})
	return out
}

// exportedMethodNodes returns the module nodes of t's exported methods,
// promoted ones included.
func exportedMethodNodes(g *Graph, t types.Type) []*FuncNode {
	var out []*FuncNode
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if fn, ok := ms.At(i).Obj().(*types.Func); ok && fn.Exported() {
			out = append(out, g.NodeOf(fn))
		}
	}
	return out
}

// exposure is the closure of module named types the public API exposes.
type exposure struct {
	module map[*types.Package]bool
	seen   map[types.Type]bool
	named  []*types.Named
}

func (e *exposure) add(t types.Type) {
	if t == nil || e.seen[t] {
		return
	}
	e.seen[t] = true
	switch t := t.(type) {
	case *types.Alias:
		e.add(types.Unalias(t))
	case *types.Named:
		t = t.Origin()
		if !e.module[t.Obj().Pkg()] {
			return
		}
		e.named = append(e.named, t)
		for i := 0; i < t.NumMethods(); i++ {
			if m := t.Method(i); m.Exported() {
				e.add(m.Type())
			}
		}
		e.add(t.Underlying())
	case *types.Pointer:
		e.add(t.Elem())
	case *types.Slice:
		e.add(t.Elem())
	case *types.Array:
		e.add(t.Elem())
	case *types.Chan:
		e.add(t.Elem())
	case *types.Map:
		e.add(t.Key())
		e.add(t.Elem())
	case *types.Signature:
		e.add(t.Params())
		e.add(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			e.add(t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				e.add(f.Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			if m := t.Method(i); m.Exported() {
				e.add(m.Type())
			}
		}
	}
}

// reachWithBoxing walks the graph from roots, adding for every reached
// function the exported methods of each concrete type it boxes into an
// interface.
func reachWithBoxing(g *Graph, roots []*FuncNode) map[*FuncNode]bool {
	seen := make(map[*FuncNode]bool)
	var stack []*FuncNode
	push := func(ns ...*FuncNode) {
		for _, n := range ns {
			if n != nil && !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
	}
	push(roots...)
	boxed := make(map[types.Type]bool)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.Edges {
			push(e.Callee)
		}
		if n.Decl.Body == nil {
			continue
		}
		sig, _ := n.Pkg.Info.Defs[n.Decl.Name].Type().(*types.Signature)
		for _, t := range boxedTypes(n.Pkg.Info, n.Decl.Body, sig) {
			if !boxed[t] {
				boxed[t] = true
				push(exportedMethodNodes(g, t)...)
			}
		}
	}
	return seen
}

// boxedTypes returns the concrete types whose values root (a function body
// with signature sig, or a package-level declaration) converts to an
// interface: explicitly, or implicitly at a call argument, assignment,
// typed declaration, return, composite-literal element or channel send.
func boxedTypes(info *types.Info, root ast.Node, sig *types.Signature) []types.Type {
	var out []types.Type
	box := func(dst types.Type, src ast.Expr) {
		t := info.TypeOf(src)
		if dst == nil || t == nil || !types.IsInterface(dst) || types.IsInterface(t) {
			return
		}
		if b, ok := t.(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
			return
		}
		out = append(out, t)
	}
	ast.Inspect(root, func(node ast.Node) bool {
		switch n := node.(type) {
		case *ast.FuncLit:
			s, _ := info.TypeOf(n).(*types.Signature)
			out = append(out, boxedTypes(info, n.Body, s)...)
			return false
		case *ast.CallExpr:
			if tv := info.Types[n.Fun]; tv.IsType() {
				if len(n.Args) == 1 {
					box(tv.Type, n.Args[0])
				}
				break
			}
			s, ok := info.TypeOf(n.Fun).(*types.Signature)
			if !ok {
				break
			}
			params := s.Params()
			for i, arg := range n.Args {
				switch {
				case s.Variadic() && i >= params.Len()-1:
					if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok && !n.Ellipsis.IsValid() {
						box(sl.Elem(), arg)
					}
				case i < params.Len():
					box(params.At(i).Type(), arg)
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					box(info.TypeOf(n.Lhs[i]), n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, v := range n.Values {
					box(info.TypeOf(n.Type), v)
				}
			}
		case *ast.ReturnStmt:
			if sig != nil && sig.Results().Len() == len(n.Results) {
				for i, r := range n.Results {
					box(sig.Results().At(i).Type(), r)
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				box(ch.Elem(), n.Value)
			}
		case *ast.CompositeLit:
			boxElements(info, n, box)
		}
		return true
	})
	return out
}

// boxElements applies box to each element of a composite literal against
// the field, element, key or value type it initializes.
func boxElements(info *types.Info, lit *ast.CompositeLit, box func(types.Type, ast.Expr)) {
	t := info.TypeOf(lit)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if t == nil {
		return
	}
	for i, elt := range lit.Elts {
		key, val := ast.Expr(nil), elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, val = kv.Key, kv.Value
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if id, ok := key.(*ast.Ident); ok {
				if f, ok := info.Uses[id].(*types.Var); ok {
					box(f.Type(), val)
				}
			} else if key == nil && i < u.NumFields() {
				box(u.Field(i).Type(), val)
			}
		case *types.Map:
			box(u.Key(), key)
			box(u.Elem(), val)
		case *types.Slice:
			box(u.Elem(), val)
		case *types.Array:
			box(u.Elem(), val)
		}
	}
}
