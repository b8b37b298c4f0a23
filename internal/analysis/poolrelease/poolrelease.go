// Package poolrelease checks that every pooled acquire is paired with
// a deferred release in the same function, on all paths. The serving
// stack's bounded pools (the snn arena free list, the serve clone pool,
// the stream batch-slot pool) leak units under error and panic paths
// when a release is manual — exactly the leak class a panicking batch
// exposed in stream.classifyBatch before its release was deferred.
//
// For each call to a known acquire method the analyzer requires one of:
//
//   - the result is bound to a variable released by the paired release
//     method in a defer (directly, or inside a deferred function
//     literal);
//   - the result is returned (ownership transfers to the caller);
//   - the result is stored into a struct field, map, slice element or
//     global (ownership is stashed; lifetime is managed elsewhere).
//
// A plain (non-deferred) release is a diagnostic: the code runs today,
// but a panic or early error return between acquire and release leaks
// the unit. An acquire inside a loop whose defer sits outside the loop
// is also a diagnostic — the defer runs once per function, not per
// iteration. An acquire whose result is discarded is always a leak.
//
// The escape hatch is //axsnn:allow-manual-release <reason> on the
// release's (or acquire's) statement, or in the function's doc
// comment, for the rare shape the analyzer cannot follow — e.g. a unit
// released on another goroutine, or a loop-scoped acquire/release pair
// whose body must not be a closure for allocation reasons.
package poolrelease

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolrelease",
	Doc:  "every pooled Acquire must have a deferred Release on all paths",
	Run:  run,
}

// pairs maps acquire method names to their paired release method names.
var pairs = map[string]string{
	"AcquireTrainScratch": "ReleaseTrain",
	"AcquireClone":        "ReleaseClone",
	"AcquireCloneTier":    "ReleaseClone",
	"AcquireSlot":         "ReleaseSlot",
}

const escapeDirective = "allow-manual-release"

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		exc := analysis.CollectExcusals(pass.Fset, file, escapeDirective)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := analysis.FuncDirective(fd, escapeDirective); ok {
				continue
			}
			// Each function literal is its own scope: a defer inside a
			// closure releases when the closure returns, not when the
			// enclosing function does.
			for _, s := range functionScopes(fd) {
				checkScope(pass, s, exc)
			}
		}
	}
	return nil
}

// A scope is one function body with nested literals masked out.
type scope struct {
	body *ast.BlockStmt
	lits []*ast.FuncLit // immediate nested literals (excluded spans)
}

func functionScopes(fd *ast.FuncDecl) []*scope {
	var bodies []*ast.BlockStmt
	bodies = append(bodies, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			bodies = append(bodies, lit.Body)
		}
		return true
	})
	var scopes []*scope
	for _, b := range bodies {
		s := &scope{body: b}
		ast.Inspect(b, func(n ast.Node) bool {
			if n == b {
				return true
			}
			if lit, ok := n.(*ast.FuncLit); ok {
				s.lits = append(s.lits, lit)
				return false
			}
			return true
		})
		scopes = append(scopes, s)
	}
	return scopes
}

// inScope reports whether pos belongs to the scope directly, not to a
// nested function literal.
func (s *scope) inScope(pos token.Pos) bool {
	if pos < s.body.Pos() || pos >= s.body.End() {
		return false
	}
	for _, lit := range s.lits {
		if lit.Pos() <= pos && pos < lit.End() {
			return false
		}
	}
	return true
}

// acquireCall matches a call to a known acquire method.
func acquireCall(call *ast.CallExpr) (acquire, release string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	r, ok := pairs[sel.Sel.Name]
	return sel.Sel.Name, r, ok
}

// refersTo reports whether call releases obj: obj appears as an
// argument or as the method receiver.
func refersTo(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == obj {
			return true
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && info.Uses[id] == obj {
			return true
		}
	}
	return false
}

// A releaseSite is one candidate release call in a scope.
type releaseSite struct {
	pos      token.Pos // position of the defer (or the call, when plain)
	callPos  token.Pos
	name     string
	call     *ast.CallExpr
	deferred bool
}

func checkScope(pass *analysis.Pass, s *scope, exc *analysis.Excusals) {
	info := pass.TypesInfo

	// Loop spans, innermost-match, for the defer-outside-loop check.
	var loops []ast.Node
	ast.Inspect(s.body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if s.inScope(n.Pos()) {
				loops = append(loops, n)
			}
		}
		return true
	})
	inLoop := func(pos token.Pos) ast.Node {
		var innermost ast.Node
		for _, l := range loops {
			if l.Pos() <= pos && pos < l.End() {
				innermost = l
			}
		}
		return innermost
	}

	// Collect the scope's release sites: deferred (directly or inside
	// a deferred literal) and plain calls.
	var releases []releaseSite
	releaseNames := map[string]bool{}
	for _, r := range pairs {
		releaseNames[r] = true
	}
	ast.Inspect(s.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if !s.inScope(n.Pos()) {
				return true
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && releaseNames[sel.Sel.Name] {
							releases = append(releases, releaseSite{n.Pos(), call.Pos(), sel.Sel.Name, call, true})
						}
					}
					return true
				})
				return true
			}
			if sel, ok := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr); ok && releaseNames[sel.Sel.Name] {
				releases = append(releases, releaseSite{n.Pos(), n.Call.Pos(), sel.Sel.Name, n.Call, true})
			}
			return false
		case *ast.CallExpr:
			if !s.inScope(n.Pos()) {
				return true
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && releaseNames[sel.Sel.Name] {
				releases = append(releases, releaseSite{n.Pos(), n.Pos(), sel.Sel.Name, n, false})
			}
		}
		return true
	})

	// Walk the scope's acquires.
	ast.Inspect(s.body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			if !s.inScope(stmt.Pos()) || len(stmt.Lhs) != len(stmt.Rhs) {
				return true
			}
			for i, rhs := range stmt.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				acquire, release, ok := acquireCall(call)
				if !ok {
					continue
				}
				lhs := ast.Unparen(stmt.Lhs[i])
				id, isIdent := lhs.(*ast.Ident)
				if !isIdent || id.Name == "_" {
					if !isIdent {
						// Stored straight into a field/map/element:
						// ownership is stashed with the owner.
						continue
					}
					pass.Reportf(call.Pos(), "result of %s is discarded: the pooled unit leaks", acquire)
					continue
				}
				var obj types.Object
				if stmt.Tok == token.DEFINE {
					obj = info.Defs[id]
				} else {
					obj = info.Uses[id]
				}
				if obj == nil {
					continue
				}
				checkAcquire(pass, s, exc, call, acquire, release, obj, releases, inLoop)
			}
		case *ast.ExprStmt:
			if !s.inScope(stmt.Pos()) {
				return true
			}
			if call, ok := ast.Unparen(stmt.X).(*ast.CallExpr); ok {
				if acquire, _, ok := acquireCall(call); ok {
					pass.Reportf(call.Pos(), "result of %s is discarded: the pooled unit leaks", acquire)
				}
			}
		}
		return true
	})
}

// checkAcquire validates one acquire bound to obj.
func checkAcquire(pass *analysis.Pass, s *scope, exc *analysis.Excusals, call *ast.CallExpr,
	acquire, release string, obj types.Object, releases []releaseSite, inLoop func(token.Pos) ast.Node) {
	info := pass.TypesInfo

	// Deferred release?
	for _, r := range releases {
		if !r.deferred || r.name != release || !refersTo(info, r.call, obj) {
			continue
		}
		if loop := inLoop(call.Pos()); loop != nil && !(loop.Pos() <= r.pos && r.pos < loop.End()) {
			pass.Reportf(call.Pos(),
				"%s inside a loop is released by a defer outside it: the defer runs once per function, every earlier iteration leaks", acquire)
		}
		return
	}
	// Plain release?
	for _, r := range releases {
		if r.deferred || r.name != release || !refersTo(info, r.call, obj) {
			continue
		}
		if _, ok := exc.Excused(r.callPos); ok {
			return
		}
		if _, ok := exc.Excused(call.Pos()); ok {
			return
		}
		pass.Reportf(r.callPos,
			"%s of %s must be deferred: an error return or panic between acquire and release leaks the pooled unit", release, obj.Name())
		return
	}
	// Ownership transfer?
	if escapes(info, s, obj) {
		return
	}
	if _, ok := exc.Excused(call.Pos()); ok {
		return
	}
	pass.Reportf(call.Pos(), "%s result %s is never released: defer %s", acquire, obj.Name(), release)
}

// escapes reports whether obj's ownership leaves the scope: returned,
// stored into a field/map/element/global, sent on a channel, or packed
// into a composite literal.
func escapes(info *types.Info, s *scope, obj types.Object) bool {
	found := false
	ast.Inspect(s.body, func(n ast.Node) bool {
		if n == nil || found {
			return false
		}
		if !s.inScope(n.Pos()) {
			return true // still descend: an escape inside a closure escapes too
		}
		isObj := func(e ast.Expr) bool {
			id, ok := ast.Unparen(e).(*ast.Ident)
			return ok && info.Uses[id] == obj
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isObj(r) {
					found = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) && isObj(rhs) {
					switch lhs := ast.Unparen(n.Lhs[i]).(type) {
					case *ast.SelectorExpr, *ast.IndexExpr:
						found = true
					case *ast.Ident:
						if v, ok := info.Uses[lhs].(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
							found = true // package-level variable
						}
					}
				}
			}
		case *ast.SendStmt:
			if isObj(n.Value) {
				found = true
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if isObj(el) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
