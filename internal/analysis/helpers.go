package analysis

// helpers.go — resolution helpers shared by the analyzers: callee and
// receiver lookup, package scoping, and the package function table
// behind wirelint's reachability walk.

import (
	"go/ast"
	"go/types"
)

// pkgInScope reports whether path is one of the listed package paths.
// Path-scoped analyzers (detlint) gate on this so testdata packages opt
// in by being checked under an assumed import path.
func pkgInScope(path string, scope []string) bool {
	for _, p := range scope {
		if path == p {
			return true
		}
	}
	return false
}

// calleeObject resolves the called function/method, or nil.
func calleeObject(pass *Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// calleeName extracts the bare called name from a call expression.
func calleeName(call *ast.CallExpr) (string, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name, true
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	}
	return "", false
}

// recvTypeName returns the named type of a method receiver, stripping
// one pointer.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// packageFuncDecls maps every function and method object declared in the
// package to its declaration — the call-graph table behind wirelint's
// reachability walk.
func packageFuncDecls(pass *Pass) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	return decls
}
