package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the whole-module half of the engine: a conservative static
// call graph over every package the loader produced. Per-file AST rules
// (RB-D1..RB-P1) see one function at a time; the graph is what lets
// RB-D4/RB-C3 prove properties *across* function boundaries — "does this
// contract function transitively reach the wall clock", "does this call
// made under a mutex transitively block".
//
// Design points, all chosen for determinism and stdlib-only operation:
//
//   - one node per declared function or method; function literals are
//     collapsed into their enclosing declaration (a literal born in F runs
//     with F's obligations: its calls become F's edges, its sources F's
//     sources);
//   - static calls resolve through go/types object identity, with
//     (*types.Func).Origin folding generic instantiations onto their
//     declaration;
//   - interface method calls resolve conservatively to every in-module,
//     non-test named type that implements the interface (callers cannot
//     know which implementation arrives at runtime, so all of them are
//     assumed); calls through a type parameter resolve the same way via
//     the parameter's constraint interface, so unresolved instantiations
//     degrade to "calls all candidates";
//   - a function value that is referenced but not immediately called
//     (method values, functions passed as callbacks) gets a "ref" edge at
//     the reference site: whoever receives the value may invoke it, and
//     the referencing function is the last point the graph can still see.
//
// Everything the graph emits — node order, edge order, the -graph dump —
// is sorted, so two loads of the same tree produce byte-identical output.

// EdgeKind classifies how a call edge was discovered.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call to a declared function or method.
	EdgeStatic EdgeKind = iota
	// EdgeIface is an interface (or type-parameter) method call resolved
	// conservatively to one of its in-module implementers.
	EdgeIface
	// EdgeRef is a function value referenced without being called; the
	// receiver of the value may invoke it later.
	EdgeRef
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeIface:
		return "iface"
	case EdgeRef:
		return "ref"
	}
	return "unknown"
}

// Edge is one caller→callee relationship with the site it was found at.
type Edge struct {
	Callee *FuncNode
	Pos    token.Pos
	Kind   EdgeKind
}

// FuncNode is one declared function or method in the module.
type FuncNode struct {
	// ID is the stable node name: "<pkgpath>.Name" for functions,
	// "<pkgpath>.(Recv).Name" / "<pkgpath>.(*Recv).Name" for methods.
	ID   string
	Pkg  *Package
	Decl *ast.FuncDecl
	// Test marks functions declared in test files (or external _test
	// packages); they never serve as interface-dispatch targets and the
	// interprocedural rules do not report into them.
	Test bool
	// Edges are the outgoing call/ref edges in discovery order (AST order,
	// interface targets sorted by ID), deduplicated.
	Edges []Edge
}

// Graph is the module call graph.
type Graph struct {
	Fset *token.FileSet
	// Nodes in ascending ID order.
	Nodes []*FuncNode
	byObj map[*types.Func]*FuncNode

	// namedTypes are every non-interface named type declared in non-test
	// module code, in stable order — the interface-dispatch candidate set.
	namedTypes []*types.TypeName
	ifaceCache map[*types.Interface]map[string][]*FuncNode
}

// NodeOf returns the node for a function object (origin-folded), nil for
// functions outside the module.
func (g *Graph) NodeOf(obj *types.Func) *FuncNode { return g.byObj[obj.Origin()] }

// BuildGraph constructs the call graph over the loaded packages.
func BuildGraph(fset *token.FileSet, pkgs []*Package) *Graph {
	g := &Graph{
		Fset:       fset,
		byObj:      make(map[*types.Func]*FuncNode),
		ifaceCache: make(map[*types.Interface]map[string][]*FuncNode),
	}
	// Pass 1: nodes for every declared function, and the dispatch
	// candidate set of named types.
	for _, pkg := range pkgs {
		extTest := strings.HasSuffix(pkg.Path, "_test")
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &FuncNode{
					ID:   funcNodeID(pkg.Path, fn),
					Pkg:  pkg,
					Decl: fn,
					Test: extTest || pkg.TestFile[f],
				}
				g.byObj[obj] = n
				g.Nodes = append(g.Nodes, n)
			}
			if !extTest && !pkg.TestFile[f] {
				g.collectNamedTypes(pkg, f)
			}
		}
	}
	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i].ID < g.Nodes[j].ID })
	sort.Slice(g.namedTypes, func(i, j int) bool {
		return namedTypeKey(g.namedTypes[i]) < namedTypeKey(g.namedTypes[j])
	})
	// Pass 2: edges.
	for _, n := range g.Nodes {
		g.buildEdges(n)
	}
	return g
}

func namedTypeKey(tn *types.TypeName) string {
	return tn.Pkg().Path() + "." + tn.Name()
}

// collectNamedTypes records a file's non-interface named type declarations
// as interface-dispatch candidates.
func (g *Graph) collectNamedTypes(pkg *Package, f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
				continue
			}
			g.namedTypes = append(g.namedTypes, tn)
		}
	}
}

// funcNodeID renders the stable node name for a declaration.
func funcNodeID(pkgPath string, fn *ast.FuncDecl) string {
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		return pkgPath + "." + recvString(fn.Recv.List[0].Type) + "." + fn.Name.Name
	}
	return pkgPath + "." + fn.Name.Name
}

// recvString renders a receiver type as "(T)" or "(*T)", dropping any type
// parameter list so generic methods fold onto one node name.
func recvString(t ast.Expr) string {
	star := ""
	if st, ok := t.(*ast.StarExpr); ok {
		star = "*"
		t = st.X
	}
	t = baseFunExpr(t) // drop the [T] / [T1, T2] type-parameter list
	if id, ok := t.(*ast.Ident); ok {
		return "(" + star + id.Name + ")"
	}
	return "(" + star + "?)"
}

// buildEdges walks one declaration's body (function literals included,
// attributed to the declaration) and records its outgoing edges.
func (g *Graph) buildEdges(n *FuncNode) {
	if n.Decl.Body == nil {
		return
	}
	info := n.Pkg.Info
	seen := make(map[Edge]bool)
	add := func(e Edge) {
		if e.Callee != nil && !seen[e] {
			seen[e] = true
			n.Edges = append(n.Edges, e)
		}
	}
	// consumed tracks the identifiers that name a direct call's target
	// (including the Sel of a pkg.F or x.M call and the base of a generic
	// instantiation), so the ref-edge pass does not double-count them.
	consumed := make(map[*ast.Ident]bool)
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)
		switch base := baseFunExpr(fun).(type) {
		case *ast.Ident:
			consumed[base] = true
		case *ast.SelectorExpr:
			consumed[base.Sel] = true
		}
		g.resolveCall(n, info, call, fun, add)
		return true
	})
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.Ident:
			if !consumed[e] {
				g.refEdge(info.Uses[e], e.Pos(), add)
			}
		case *ast.SelectorExpr:
			// Only method *values* and cross-package function values make
			// ref edges; a field selector resolves to a Var and is skipped
			// inside refEdge. The receiver expression still gets visited;
			// marking Sel consumed stops its bare-ident visit from
			// double-adding at a different position.
			if !consumed[e.Sel] {
				consumed[e.Sel] = true
				g.refEdge(info.Uses[e.Sel], e.Pos(), add)
			}
		}
		return true
	})
}

// baseFunExpr unwraps explicit generic instantiations (f[T], f[T1, T2]) to
// the underlying function expression.
func baseFunExpr(fun ast.Expr) ast.Expr {
	for {
		switch f := fun.(type) {
		case *ast.IndexExpr:
			fun = ast.Unparen(f.X)
		case *ast.IndexListExpr:
			fun = ast.Unparen(f.X)
		default:
			return fun
		}
	}
}

// resolveCall records the edges for one call expression.
func (g *Graph) resolveCall(n *FuncNode, info *types.Info, call *ast.CallExpr, fun ast.Expr, add func(Edge)) {
	switch fn := fun.(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fn].(*types.Func); ok {
			add(Edge{Callee: g.NodeOf(obj), Pos: call.Pos(), Kind: EdgeStatic})
		}
	case *ast.SelectorExpr:
		sel, isSel := info.Selections[fn]
		if isSel && sel.Kind() == types.MethodVal {
			obj := sel.Obj().(*types.Func)
			recv := sel.Recv()
			if iface := dispatchInterface(recv); iface != nil {
				for _, target := range g.implementers(iface, obj.Name()) {
					add(Edge{Callee: target, Pos: call.Pos(), Kind: EdgeIface})
				}
				return
			}
			add(Edge{Callee: g.NodeOf(obj), Pos: call.Pos(), Kind: EdgeStatic})
			return
		}
		// Qualified call (pkg.F) or method expression (T.M): a plain use.
		if obj, ok := info.Uses[fn.Sel].(*types.Func); ok {
			add(Edge{Callee: g.NodeOf(obj), Pos: call.Pos(), Kind: EdgeStatic})
		}
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		g.resolveCall(n, info, call, ast.Unparen(fn.X), add)
	case *ast.IndexListExpr:
		g.resolveCall(n, info, call, ast.Unparen(fn.X), add)
	}
	// *ast.FuncLit calls and dynamic calls of func-typed variables add no
	// edge here: literals are collapsed into this node (their bodies were
	// already walked), and variables were ref-edged where the value was
	// taken.
}

// dispatchInterface returns the interface a dynamic method call goes
// through: the receiver's interface type, or a type parameter's constraint
// interface. Nil for concrete receivers.
func dispatchInterface(recv types.Type) *types.Interface {
	switch t := recv.(type) {
	case *types.Interface:
		return t
	case *types.TypeParam:
		if iface, ok := t.Constraint().Underlying().(*types.Interface); ok {
			return iface
		}
	case *types.Named:
		if iface, ok := t.Underlying().(*types.Interface); ok {
			return iface
		}
	case *types.Pointer:
		return dispatchInterface(t.Elem())
	}
	return nil
}

// refEdge adds a ref edge when obj is an in-module declared function.
func (g *Graph) refEdge(obj types.Object, pos token.Pos, add func(Edge)) {
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	add(Edge{Callee: g.NodeOf(fn), Pos: pos, Kind: EdgeRef})
}

// implementers resolves an interface method to every in-module, non-test
// named type implementing the interface, in stable ID order.
func (g *Graph) implementers(iface *types.Interface, method string) []*FuncNode {
	byMethod := g.ifaceCache[iface]
	if byMethod == nil {
		byMethod = make(map[string][]*FuncNode)
		g.ifaceCache[iface] = byMethod
	}
	if targets, ok := byMethod[method]; ok {
		return targets
	}
	var targets []*FuncNode
	if iface.NumMethods() > 0 { // io.Writer-style; empty interfaces dispatch nowhere
		for _, tn := range g.namedTypes {
			for _, t := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				if !types.Implements(t, iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(t, true, tn.Pkg(), method)
				if m, ok := obj.(*types.Func); ok {
					if target := g.NodeOf(m); target != nil && !target.Test {
						targets = append(targets, target)
					}
				}
				break // pointer method set ⊇ value method set; one hit is enough
			}
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ID < targets[j].ID })
	targets = dedupNodes(targets)
	byMethod[method] = targets
	return targets
}

func dedupNodes(ns []*FuncNode) []*FuncNode {
	out := ns[:0]
	for i, n := range ns {
		if i == 0 || ns[i-1] != n {
			out = append(out, n)
		}
	}
	return out
}

// Reachable returns every node reachable from the given roots (the roots
// themselves included), following all edge kinds.
func (g *Graph) Reachable(roots ...*FuncNode) map[*FuncNode]bool {
	seen := make(map[*FuncNode]bool)
	var stack []*FuncNode
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.Edges {
			if !seen[e.Callee] {
				seen[e.Callee] = true
				stack = append(stack, e.Callee)
			}
		}
	}
	return seen
}

// Dump writes the graph in a stable text form: nodes in ID order, each
// followed by its edges and taint sources. Positions are rendered relative
// to root when non-empty, so dumps are stable across checkouts. Two loads
// of the same tree produce byte-identical dumps.
func (g *Graph) Dump(w io.Writer, root string) {
	edges := 0
	for _, n := range g.Nodes {
		edges += len(n.Edges)
	}
	fmt.Fprintf(w, "# call graph: %d nodes, %d edges\n", len(g.Nodes), edges)
	for _, n := range g.Nodes {
		flags := ""
		if n.Test {
			flags = " [test]"
		}
		fmt.Fprintf(w, "node %s%s\n", n.ID, flags)
		for _, e := range n.Edges {
			fmt.Fprintf(w, "  -> %s kind=%s site=%s\n", e.Callee.ID, e.Kind, g.position(e.Pos, root))
		}
		for _, s := range funcSources(n, nil, nil) {
			fmt.Fprintf(w, "  source %s at %s\n", s.Desc, g.position(s.Pos, root))
		}
	}
}

// position renders a root-relative file:line for dump and diagnostics.
func (g *Graph) position(pos token.Pos, root string) string {
	p := g.Fset.Position(pos)
	if root != "" {
		if rel, err := filepath.Rel(root, p.Filename); err == nil && !filepath.IsAbs(rel) && !strings.HasPrefix(rel, "..") {
			p.Filename = filepath.ToSlash(rel)
		}
	}
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}
