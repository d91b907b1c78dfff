// Package spanclose verifies that every request-trace span opened with
// trace.Start, trace.New or trace.StartRemote is ended on all paths out of
// the function: either via `defer sp.End()` (which also survives panics)
// or by an End/EndErr call that no early return can skip. An unended span
// never reaches the trace, so the tree stops accounting for its parent's
// wall time — and an unended root never completes the trace at all.
package spanclose

import (
	"go/ast"
	"go/types"

	"dassa/internal/lint/analysis"
	"dassa/internal/lint/astutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "spanclose",
	Doc: "every trace span constructor (trace.Start/New/StartRemote) " +
		"must be matched by End or EndErr on all return paths " +
		"(including panics) — prefer `defer sp.End()`",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, u := range astutil.Units(f) {
			checkUnit(pass, u)
		}
	}
	return nil
}

// spanResult matches a call that creates a span: a package-level function
// named Start, New, or StartRemote with exactly one result whose (possibly
// pointer) named type is Span — the trace package's constructors
// (`ctx, sp := trace.Start(...)`), without hard-coding import paths so
// testdata stand-ins are exercised too. Returns the Span's index among the
// call's results.
func spanResult(pass *analysis.Pass, call *ast.CallExpr) (idx, results int, ok bool) {
	fn := astutil.Callee(pass.TypesInfo, call)
	if fn == nil {
		return 0, 0, false
	}
	switch fn.Name() {
	case "Start", "New", "StartRemote":
	default:
		return 0, 0, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil {
		return 0, 0, false
	}
	idx = -1
	for i := 0; i < sig.Results().Len(); i++ {
		res := astutil.NamedOf(sig.Results().At(i).Type())
		if res == nil || res.Obj().Name() != "Span" {
			continue
		}
		if idx >= 0 {
			return 0, 0, false // two Span results: ownership is ambiguous
		}
		idx = i
	}
	if idx < 0 {
		return 0, 0, false
	}
	return idx, sig.Results().Len(), true
}

func checkUnit(pass *analysis.Pass, u astutil.FuncUnit) {
	// Walk only this unit's own statements; a span started in a closure is
	// that closure's responsibility.
	type start struct {
		call         *ast.CallExpr
		idx, results int
	}
	var starts []start
	astutil.WalkUnit(u.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if idx, results, ok := spanResult(pass, call); ok {
				starts = append(starts, start{call, idx, results})
			}
		}
		return true
	})
	for _, s := range starts {
		checkStart(pass, u, s.call, s.idx, s.results)
	}
}

func checkStart(pass *analysis.Pass, u astutil.FuncUnit, call *ast.CallExpr, idx, results int) {
	// `return trace.Start(...)` or `finish(trace.Start(...))`: the span
	// escapes unassigned — ending it is the receiver's responsibility.
	if escapesUnassigned(u.Body, call) {
		return
	}
	assign, lhs := assignmentOf(u.Body, call, idx, results)
	if assign == nil || lhs == nil || lhs.Name == "_" {
		pass.Reportf(call.Pos(),
			"spanclose: Span result discarded; the span never reaches the trace — "+
				"assign it and `defer sp.End()`")
		return
	}
	obj := pass.ObjectOf(lhs)
	if obj == nil {
		return
	}

	st := spanTracker{pass: pass, obj: obj}
	astutil.WalkUnit(u.Body, st.visitShallow)
	// Deferred closures count: `defer func() { sp.End() }()`.
	ast.Inspect(u.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok && st.isEndOnObj(c) {
						st.deferred = true
					}
					return true
				})
			}
		}
		return true
	})

	switch {
	case st.deferred || st.escapes:
		return
	case len(st.ends) == 0:
		pass.Reportf(call.Pos(),
			"spanclose: span is started but never ended in this function; add `defer %s.End()`", lhs.Name)
	case !endReachesAllPaths(u.Body, assign, st.ends, obj, pass):
		pass.Reportf(call.Pos(),
			"spanclose: span may not be ended on every return path; use `defer %s.End()`", lhs.Name)
	}
}

type spanTracker struct {
	pass     *analysis.Pass
	obj      types.Object
	deferred bool
	escapes  bool
	ends     []ast.Node
}

// visitShallow records defers, direct End calls, and uses of the span
// variable that hand it to other code (argument, return, field store).
func (t *spanTracker) visitShallow(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.DeferStmt:
		if t.isEndOnObj(x.Call) {
			t.deferred = true
		}
		return false
	case *ast.CallExpr:
		if t.isEndOnObj(x) {
			t.ends = append(t.ends, x)
			return true
		}
		for _, arg := range x.Args {
			if t.isObjIdent(arg) {
				t.escapes = true // handed to another function: its problem now
			}
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			if t.isObjIdent(r) {
				t.escapes = true
			}
		}
	case *ast.AssignStmt:
		for i, r := range x.Rhs {
			if t.isObjIdent(r) && i < len(x.Lhs) {
				if _, plain := x.Lhs[i].(*ast.Ident); !plain {
					t.escapes = true // stored into a field/map: tracked elsewhere
				}
			}
		}
	}
	return true
}

func (t *spanTracker) isObjIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && t.pass.ObjectOf(id) == t.obj
}

func (t *spanTracker) isEndOnObj(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "End" && sel.Sel.Name != "EndErr") {
		return false
	}
	return t.isObjIdent(sel.X)
}

// escapesUnassigned reports whether call's result leaves the function
// without ever being bound to a local: returned directly or passed as an
// argument to another call.
func escapesUnassigned(body *ast.BlockStmt, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if ast.Unparen(r) == call {
					found = true
				}
			}
		case *ast.CallExpr:
			for _, a := range x.Args {
				if ast.Unparen(a) == call {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// assignmentOf finds the `ctx, sp := trace.Start(...)` statement and the
// identifier bound to the call's Span result, if that is how the result is
// consumed.
func assignmentOf(body *ast.BlockStmt, call *ast.CallExpr, idx, results int) (*ast.AssignStmt, *ast.Ident) {
	var as *ast.AssignStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if a, ok := n.(*ast.AssignStmt); ok && len(a.Rhs) == 1 && ast.Unparen(a.Rhs[0]) == call {
			as = a
			return false
		}
		return as == nil
	})
	if as == nil || len(as.Lhs) != results {
		return as, nil
	}
	id, _ := as.Lhs[idx].(*ast.Ident)
	return as, id
}

// endReachesAllPaths approximates "no return skips End": some End call
// must be a sibling of the Start assignment in the same statement list,
// with no intervening statement that returns, branches, or panics.
func endReachesAllPaths(body *ast.BlockStmt, assign *ast.AssignStmt, ends []ast.Node, obj types.Object, pass *analysis.Pass) bool {
	list := enclosingList(body, assign)
	if list == nil {
		return false
	}
	start := -1
	for i, st := range list {
		if st == ast.Stmt(assign) {
			start = i
			break
		}
	}
	if start < 0 {
		return false
	}
	for i := start + 1; i < len(list); i++ {
		if isDirectEnd(list[i], ends) {
			return true
		}
		// Any statement that can leave the function (or hide the End
		// behind a condition) before an unconditional End fails the check.
		if astutil.ContainsReturnOrPanic(list[i]) {
			return false
		}
	}
	return false
}

// isDirectEnd reports whether stmt is an unconditional End call: a bare
// expression statement or a single assignment from the End's result.
func isDirectEnd(stmt ast.Stmt, ends []ast.Node) bool {
	var e ast.Expr
	switch x := stmt.(type) {
	case *ast.ExprStmt:
		e = x.X
	case *ast.AssignStmt:
		if len(x.Rhs) != 1 {
			return false
		}
		e = x.Rhs[0]
	default:
		return false
	}
	e = ast.Unparen(e)
	for _, want := range ends {
		if e == want {
			return true
		}
	}
	return false
}

// enclosingList returns the statement list that directly contains stmt.
func enclosingList(body *ast.BlockStmt, stmt ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch x := n.(type) {
		case *ast.BlockStmt:
			list = x.List
		case *ast.CaseClause:
			list = x.Body
		case *ast.CommClause:
			list = x.Body
		default:
			return out == nil
		}
		for _, st := range list {
			if st == stmt {
				out = list
				return false
			}
		}
		return out == nil
	})
	return out
}
