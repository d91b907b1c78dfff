// Package cowopt enforces DASSA's copy-on-write option convention:
// `With*` methods that return their receiver's type (dass.View's
// WithSlabReader/WithContext and friends) must build a modified copy, never
// mutate the receiver in place. Views are shared freely across request
// goroutines precisely because option application cannot alias-write them.
package cowopt

import (
	"go/ast"
	"go/types"
	"strings"

	"dassa/internal/lint/analysis"
	"dassa/internal/lint/astutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "cowopt",
	Doc: "With* option methods must copy-on-write: no assignment through a " +
		"pointer receiver, no writes into maps/slices reachable from the receiver",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if !strings.HasPrefix(fd.Name.Name, "With") {
				continue
			}
			if !returnsReceiverType(pass, fd) {
				continue
			}
			recvObj, ptrRecv := receiver(pass, fd)
			if recvObj == nil {
				continue
			}
			checkBody(pass, fd, recvObj, ptrRecv)
		}
	}
	return nil
}

// receiver returns the receiver variable's object and whether the
// receiver is a pointer.
func receiver(pass *analysis.Pass, fd *ast.FuncDecl) (types.Object, bool) {
	field := fd.Recv.List[0]
	_, ptr := field.Type.(*ast.StarExpr)
	if len(field.Names) == 0 {
		return nil, ptr // anonymous receiver cannot be mutated
	}
	return pass.TypesInfo.Defs[field.Names[0]], ptr
}

// returnsReceiverType reports whether any result of fd has the receiver's
// named type (by value or pointer) — the signature shape of an option.
func returnsReceiverType(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	obj := pass.TypesInfo.Defs[fd.Name]
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recvNamed := astutil.RecvNamed(fn)
	if recvNamed == nil {
		return false
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Results().Len(); i++ {
		if astutil.NamedOf(sig.Results().At(i).Type()) == recvNamed {
			return true
		}
	}
	return false
}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl, recv types.Object, ptrRecv bool) {
	check := func(lhs ast.Expr) {
		root, depth, sawIndex := astutil.Chain(lhs)
		if root == nil || pass.ObjectOf(root) != recv || depth == 0 {
			return
		}
		switch {
		case sawIndex:
			pass.Reportf(lhs.Pos(),
				"cowopt: %s writes into a map/slice reachable from the receiver; "+
					"even a copied receiver shares that storage — copy the container before writing",
				fd.Name.Name)
		case ptrRecv:
			pass.Reportf(lhs.Pos(),
				"cowopt: %s assigns to a field of its pointer receiver; "+
					"options must copy-on-write (cp := *%s; cp.field = ...; return &cp)",
				fd.Name.Name, root.Name)
		}
	}
	// Closures inside an option inherit the invariant: a captured receiver
	// mutated later is still a mutation the option arranged.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(x.X)
		}
		return true
	})
}
