// Package astutil holds the small set of syntax/type helpers the DASSA
// analyzers share: callee resolution, selector-chain unwrapping, and the
// "which function body am I in" queries a statement-level invariant needs.
package astutil

import (
	"go/ast"
	"go/types"
	"strings"
)

// Callee resolves the called function or method of call, or nil when the
// callee is dynamic (a func value, an interface method on an unknown
// object resolves fine — it is still a *types.Func).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	f, _ := obj.(*types.Func)
	return f
}

// PkgPath returns the import path of the package declaring f ("" for
// builtins and error.Error).
func PkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// RecvNamed returns the named type of f's receiver with pointers
// dereferenced, or nil for non-methods.
func RecvNamed(f *types.Func) *types.Named {
	if f == nil {
		return nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return NamedOf(sig.Recv().Type())
}

// NamedOf unwraps pointers and aliases down to a *types.Named, or nil.
func NamedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		case *types.Alias:
			t = types.Unalias(u)
		default:
			return nil
		}
	}
}

// IsNamed reports whether t (possibly behind pointers) is the named type
// pkgPath.name. pkgPath matches the full path or its "/"-suffix, so
// "dasf" matches both "dassa/internal/dasf" and a testdata stand-in
// package literally named "dasf".
func IsNamed(t types.Type, pkgPath, name string) bool {
	n := NamedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	p := n.Obj().Pkg().Path()
	return n.Obj().Name() == name && (p == pkgPath || strings.HasSuffix(p, "/"+pkgPath))
}

// Chain unwraps an lvalue expression into its root identifier, the number
// of field selections crossed, and whether any map/slice indexing was
// crossed on the way: `v.m[k]` → (v, 1, true).
func Chain(e ast.Expr) (root *ast.Ident, selDepth int, sawIndex bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			selDepth++
			e = x.X
		case *ast.IndexExpr:
			sawIndex = true
			e = x.X
		case *ast.Ident:
			return x, selDepth, sawIndex
		default:
			return nil, selDepth, sawIndex
		}
	}
}

// EnclosingFuncs returns, for every function body in file (declarations
// and literals), the body's node. Used by analyzers that treat each
// function — including closures — as an independent analysis unit.
type FuncUnit struct {
	// Decl is non-nil for declared functions, Lit for closures.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Body *ast.BlockStmt
}

// Units collects every function unit in the file.
func Units(file *ast.File) []FuncUnit {
	var out []FuncUnit
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Body != nil {
				out = append(out, FuncUnit{Decl: x, Body: x.Body})
			}
		case *ast.FuncLit:
			out = append(out, FuncUnit{Lit: x, Body: x.Body})
		}
		return true
	})
	return out
}

// WalkUnit walks the statements of a unit body in source order, skipping
// the bodies of nested function literals (they execute at another time,
// so statement-ordered invariants like "lock held" do not extend into
// them).
func WalkUnit(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != nil {
			return false
		}
		if n == nil {
			return true
		}
		return fn(n)
	})
}

// IsPanicCall reports whether stmt is a bare panic(...) call.
func IsPanicCall(stmt ast.Stmt) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
