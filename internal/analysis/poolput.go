package analysis

import (
	"go/ast"
	"go/types"
)

// AnalyzerPoolPut (RB-C1) checks sync.Pool hygiene: a function that takes
// a value out of a pool (sync.Pool.Get, or a configured accessor pair like
// raster's getFloats/putFloats) must either return it to the pool, hand it
// to a Put/Recycle/Free call, return it to the caller (ownership
// transfer), or store it into a longer-lived structure. A Get with none of
// those is a leak: the pool silently degrades to plain allocation and the
// PR-1 hot-path wins evaporate under load.
var AnalyzerPoolPut = &Analyzer{
	ID:  "RB-C1",
	Doc: "pool Get results must be Put/Recycled, returned, or stored on every path",
	Run: runPoolPut,
}

func runPoolPut(p *Pass) {
	for _, f := range p.NonTestFiles() {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkPoolGets(p, fn)
		}
	}
}

func checkPoolGets(p *Pass, fn *ast.FuncDecl) {
	gets := poolGetCalls(p, fn.Body)
	if len(gets) == 0 {
		return
	}
	if hasPoolReturnCall(p, fn.Body) {
		return
	}
	for _, g := range gets {
		v := assignedVar(p, fn.Body, g)
		if v == nil {
			// Used as a bare expression (e.g. returned directly): the
			// value escapes to the caller, which owns it now.
			if inReturn(fn.Body, g) {
				continue
			}
			p.Report(g.Pos(), "pool Get result is neither returned to the pool nor to the caller")
			continue
		}
		if varEscapes(p, fn.Body, v) {
			continue
		}
		p.Report(g.Pos(), "pool value %s is never Put/Recycled, returned, or stored: the pool degrades to plain allocation", v.Name())
	}
}

// poolGetCalls finds sync.Pool.Get method calls and configured accessor
// calls (Config.PoolPairs keys) in the function body.
func poolGetCalls(p *Pass, body *ast.BlockStmt) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Get" && isSyncPool(p.TypeOf(sel.X)) {
				out = append(out, call)
				return true
			}
			if _, ok := p.Config.PoolPairs[sel.Sel.Name]; ok {
				out = append(out, call)
				return true
			}
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if _, ok := p.Config.PoolPairs[id.Name]; ok {
				out = append(out, call)
			}
		}
		return true
	})
	return out
}

// hasPoolReturnCall reports whether the body contains any call that gives
// a value back to a pool: sync.Pool.Put, a configured Put pair, or a
// Recycle/Free-named call (the repo's raster.Image.Recycle idiom).
func hasPoolReturnCall(p *Pass, body *ast.BlockStmt) bool {
	putNames := map[string]bool{"Recycle": true, "Free": true}
	for _, put := range p.Config.PoolPairs {
		putNames[put] = true
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "Put" && isSyncPool(p.TypeOf(fun.X)) {
				found = true
			} else if putNames[fun.Sel.Name] {
				found = true
			}
		case *ast.Ident:
			if putNames[fun.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}

// assignedVar finds the variable a Get call's result lands in, looking
// through type assertions: v := pool.Get().(*T).
func assignedVar(p *Pass, body *ast.BlockStmt, get *ast.CallExpr) *types.Var {
	var v *types.Var
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) == 0 {
			return true
		}
		for _, rhs := range assign.Rhs {
			if !containsNode(rhs, get) {
				continue
			}
			if id, ok := assign.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				if tv, ok := p.ObjectOf(id).(*types.Var); ok {
					v = tv
				}
			}
			return false
		}
		return true
	})
	return v
}

// varEscapes reports whether v is handed onward somewhere in the body:
// passed to any call, returned, sent on a channel, or stored through a
// selector/index/deref. Any of those transfers ownership; the leak case
// is a Get whose value only feeds local reads.
func varEscapes(p *Pass, body *ast.BlockStmt, v *types.Var) bool {
	escapes := false
	// usesVar looks for v but does not descend into len/cap calls: those
	// read the value without taking ownership of it.
	usesVar := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && p.isLenCap(call) {
				return false
			}
			if id, ok := n.(*ast.Ident); ok && p.ObjectOf(id) == v {
				found = true
			}
			return !found
		})
		return found
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if p.isLenCap(n) {
				return true
			}
			for _, arg := range n.Args {
				if usesVar(arg) {
					escapes = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if usesVar(r) {
					escapes = true
				}
			}
		case *ast.SendStmt:
			if usesVar(n.Value) {
				escapes = true
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if _, isIdent := lhs.(*ast.Ident); !isIdent && i < len(n.Rhs) && usesVar(n.Rhs[i]) {
					escapes = true
				}
			}
		}
		return !escapes
	})
	return escapes
}

// isLenCap reports whether call is builtin len or cap.
func (p *Pass) isLenCap(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || (id.Name != "len" && id.Name != "cap") {
		return false
	}
	_, builtin := p.ObjectOf(id).(*types.Builtin)
	return builtin
}

// inReturn reports whether the call appears inside a return statement.
func inReturn(body *ast.BlockStmt, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if containsNode(r, call) {
				found = true
			}
		}
		return !found
	})
	return found
}

func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

func isSyncPool(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}
