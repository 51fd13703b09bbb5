package detrand

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// detPackages are the packages whose behaviour must be a pure function of
// their inputs and seeds: the Byzantine rewrites, the protocol state
// machine, the discrete-event engine, the soak sweep (per-seed results are
// replayed and shrunk by seed), the INFO-set coding and the wire codec.
var detPackages = []string{"adversary", "core", "sim", "soak", "seqset", "wire"}

// wallClockReads are the functions of detPackages that may read the wall
// clock, and how many reads each makes. soak.Run's three decide how many
// seeds a Budget lets it dispatch and report Elapsed; no seed's result
// depends on them.
var wallClockReads = map[string]int{"soak.Run": 3}

// TestDeterministicPackagesReadNoClockOrGlobalRand scans the non-test
// files of detPackages, parsed but not type-checked, for the two ways a
// seeded run stops replaying: an import of math/rand or math/rand/v2
// (seeded generators come from this package, stream-identical to
// rand.New(rand.NewSource(seed))), and a time.Now, time.Since or
// time.Until selector on the file's time import under whatever name the
// file gives it (virtual time comes in as an argument). The only reads
// allowed are wallClockReads', named by function.
func TestDeterministicPackagesReadNoClockOrGlobalRand(t *testing.T) {
	fset := token.NewFileSet()
	reads := map[string]int{}
	for _, pkg := range detPackages {
		paths, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no Go files in internal/%s (%v)", pkg, err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			clock := ""
			for _, imp := range f.Imports {
				switch p, _ := strconv.Unquote(imp.Path.Value); p {
				case "math/rand", "math/rand/v2":
					t.Errorf("%s: imports %s; draw seeded randomness from internal/detrand", fset.Position(imp.Pos()), p)
				case "time":
					clock = "time"
					if imp.Name != nil {
						clock = imp.Name.Name
					}
				}
			}
			if clock == "." {
				t.Errorf("%s: dot-imports time, which hides its wall-clock reads", path)
			}
			for _, decl := range f.Decls {
				fn := pkg + "." + declName(decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); !ok || x.Name != clock {
						return true
					}
					switch sel.Sel.Name {
					case "Now", "Since", "Until":
						if _, ok := wallClockReads[fn]; ok {
							reads[fn]++
						} else {
							t.Errorf("%s: %s calls time.%s; take the virtual time as an argument",
								fset.Position(sel.Pos()), fn, sel.Sel.Name)
						}
					}
					return true
				})
			}
		}
	}
	for fn, want := range wallClockReads {
		if reads[fn] != want {
			t.Errorf("%s reads the wall clock %d times, want %d: update wallClockReads only for a read no seed's result depends on",
				fn, reads[fn], want)
		}
	}
}

// declName names a top-level declaration as a stack trace would: F,
// T.M or (*T).M, and "init" for everything that is not a function.
func declName(decl ast.Decl) string {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return "init"
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

// recvName renders a receiver type, generic parameters dropped.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "(*" + recvName(e.X) + ")"
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
