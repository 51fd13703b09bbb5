package analysis

// helpers.go — resolution helpers shared by the analyzers: callee and
// receiver lookup, package scoping, the package function table behind
// wirelint's reachability walk, and the parameter/argument alignment
// behind lanelint's provenance walk.

import (
	"go/ast"
	"go/types"
)

// pkgInScope reports whether path is one of the listed package paths.
// Path-scoped analyzers (detlint, lanelint) gate on this so testdata
// packages opt in by being checked under an assumed import path.
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

// funcParamObjs lists a declaration's parameter objects in signature
// order, with the receiver first for methods (so indices line up with
// callArgExprs). Unnamed or blank parameters yield nil entries. info is
// the declaring package's: the walks that use it cross packages.
func funcParamObjs(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	addField := func(f *ast.Field) {
		if len(f.Names) == 0 {
			out = append(out, nil)
			return
		}
		for _, name := range f.Names {
			if name.Name == "_" {
				out = append(out, nil)
				continue
			}
			out = append(out, info.Defs[name])
		}
	}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			addField(f)
		}
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			addField(f)
		}
	}
	return out
}

// callArgExprs lists a call site's argument expressions aligned with
// funcParamObjs(fd): the receiver expression first for method calls.
// Variadic overflow arguments map to the last parameter slot; entries
// may be nil when no expression is available.
func callArgExprs(call *ast.CallExpr, fd *ast.FuncDecl) []ast.Expr {
	var out []ast.Expr
	if fd.Recv != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			out = append(out, sel.X)
		} else {
			out = append(out, nil)
		}
	}
	out = append(out, call.Args...)
	return out
}
