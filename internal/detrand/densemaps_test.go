package detrand

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// simPackages are the simulator packages around core. Like core (see its
// TestCoreDeclaresNoMaps), they keep state about hosts, servers, links,
// link classes and event kinds in slices and arrays in index order.
var simPackages = []string{"netsim", "harness", "trace", "topo"}

// denseIDs are the key types that are dense indices: a map keyed by one
// costs a hash per lookup and brings an iteration order every loop over
// it has to remember not to use.
var denseIDs = map[string]bool{"HostID": true, "ServerID": true, "LinkID": true, "LinkClass": true, "EventKind": true}

// denseMapFields are the struct fields that may hold such a map, named
// package.Type.Field: the scenario's adversary placement and the
// per-adversary result, both sparse. An assignment to a field of one of these
// names in its package may build the map.
var denseMapFields = map[string]bool{
	"harness.Scenario.Adversaries":  true,
	"harness.Result.AdversaryStats": true,
}

// TestSimulatorKeysNoMapsByDenseID scans the non-test files of
// simPackages, parsed but not type-checked, for a map type whose key is
// one of denseIDs, however qualified, outside denseMapFields.
func TestSimulatorKeysNoMapsByDenseID(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]bool{}
	for _, pkg := range simPackages {
		paths, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no Go files in internal/%s (%v)", pkg, err)
		}
		fieldNames := map[string]bool{}
		for name := range denseMapFields {
			if rest, ok := strings.CutPrefix(name, pkg+"."); ok {
				fieldNames[rest[strings.IndexByte(rest, '.')+1:]] = true
			}
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			allowed := map[ast.Node]bool{}
			var found []*ast.MapType
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					if !ok {
						return true
					}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if full := pkg + "." + n.Name.Name + "." + name.Name; denseMapFields[full] {
								declared[full] = true
								allowed[field.Type] = true
							}
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && fieldNames[sel.Sel.Name] && i < len(n.Rhs) {
							if call, ok := n.Rhs[i].(*ast.CallExpr); ok && len(call.Args) > 0 {
								allowed[call.Args[0]] = true // make(map[…]…, …)
							}
						}
					}
				case *ast.MapType:
					found = append(found, n)
				}
				return true
			})
			for _, m := range found {
				if denseKey(m.Key) && !allowed[m] {
					t.Errorf("%s: %s in package %s; keep the table as a slice or array indexed by the id",
						fset.Position(m.Pos()), types.ExprString(m), pkg)
				}
			}
		}
	}
	for name := range denseMapFields {
		if !declared[name] {
			t.Errorf("%s is allowed a map but was not found; drop it from denseMapFields", name)
		}
	}
}

// denseKey reports whether a map key type names one of denseIDs, bare or
// package-qualified.
func denseKey(key ast.Expr) bool {
	switch k := key.(type) {
	case *ast.Ident:
		return denseIDs[k.Name]
	case *ast.SelectorExpr:
		return denseIDs[k.Sel.Name]
	}
	return false
}
