package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// WireLint keeps the wire codec total over the message-kind space: in a
// package that declares top-level Encode and Decode functions, every
// constant of the MsgKind type must be handled on both the encode and
// the decode path (reachable same-package code must reference it from
// each entry point), every kind must be seeded into a fuzz corpus
// (appear by name inside a Fuzz* function in the package's test files,
// or in a test-file function it names), and every kind must be in a
// benchmark corpus (likewise for Benchmark* functions). A kind that
// encodes but does not decode is a protocol message that silently
// vanishes on the far side; a kind
// absent from the fuzz corpus never gets its frame layout exercised; a
// kind absent from the benchmarks has no tripwire for its encode/decode
// cost, which can then regress silently.
//
// When the codec package has a sibling live package (../live) with its
// own Fuzz* functions, every kind must also be seeded there: the
// real-time runtimes wrap frames in the host driver's stream-prefixed
// envelope (internal/node's codec, fuzzed from the live package, whose
// transport accepts envelope bytes from any caller), and a kind fuzzed
// only at the frame layer can still panic the envelope path. Packages
// without such a sibling (or whose sibling has no fuzz targets) are
// exempt.
var WireLint = &Analyzer{
	Name: "wirelint",
	Doc: "every MsgKind must be handled by both Encode and Decode, seeded " +
		"in a Fuzz* and a Benchmark* corpus, and covered by the sibling live-fuzz package",
	Run: runWireLint,
}

func runWireLint(pass *Pass) error {
	encode := topLevelFunc(pass, "Encode")
	decode := topLevelFunc(pass, "Decode")
	if encode == nil || decode == nil {
		return nil
	}
	kindType := findMsgKindType(pass)
	if kindType == nil {
		return nil
	}
	kinds := kindConstants(kindType)
	if len(kinds) == 0 {
		return nil
	}

	encodeRefs := reachableKindRefs(pass, encode, kindType)
	decodeRefs := reachableKindRefs(pass, decode, kindType)
	fuzzFuncs, fuzzNames := testFuncNames(pass.TestFiles, "Fuzz")

	for _, k := range kinds {
		if !encodeRefs[k] {
			pass.Reportf(encode.Pos(),
				"message kind %s is not handled on the Encode path: frames of this kind cannot be sent", k.Name())
		}
		if !decodeRefs[k] {
			pass.Reportf(decode.Pos(),
				"message kind %s is not handled on the Decode path: frames of this kind are dropped on receipt", k.Name())
		}
	}
	if len(fuzzFuncs) == 0 {
		pass.Reportf(decode.Pos(),
			"package has Encode/Decode but no Fuzz* function seeding message kinds into a corpus")
		return nil
	}
	for _, k := range kinds {
		if !fuzzNames[k.Name()] {
			pass.Reportf(fuzzFuncs[0].Pos(),
				"message kind %s is not seeded in any Fuzz* corpus: its frame layout is never fuzzed", k.Name())
		}
	}
	// Reported against the first Benchmark* function, or against Decode
	// when the package has none: a codec without benchmarks is reported
	// for every kind, not exempted.
	benchFuncs, benchNames := testFuncNames(pass.TestFiles, "Benchmark")
	benchPos := decode.Pos()
	if len(benchFuncs) > 0 {
		benchPos = benchFuncs[0].Pos()
	}
	for _, k := range kinds {
		if !benchNames[k.Name()] {
			pass.Reportf(benchPos,
				"message kind %s is not named in any Benchmark* corpus: its encode/decode cost can regress unnoticed", k.Name())
		}
	}
	if liveNames, ok := siblingLiveFuzzNames(pass); ok {
		for _, k := range kinds {
			if !liveNames[k.Name()] {
				pass.Reportf(decode.Pos(),
					"message kind %s is not seeded in the sibling live package's Fuzz* corpus: the envelope decoder never sees its layout", k.Name())
			}
		}
	}
	return nil
}

// siblingLiveFuzzNames parses the test files of the codec package's
// sibling live directory (../live) and collects the names inside their
// Fuzz* functions. ok is false when no such directory exists or it
// declares no fuzz targets — such packages are exempt.
func siblingLiveFuzzNames(pass *Pass) (map[string]bool, bool) {
	dir := filepath.Join(filepath.Dir(pass.Dir), "live")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, false
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		if f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0); err == nil {
			files = append(files, f)
		}
	}
	funcs, names := testFuncNames(files, "Fuzz")
	return names, len(funcs) > 0
}

// topLevelFunc finds a package-level function (no receiver) by name.
func topLevelFunc(pass *Pass, name string) *ast.FuncDecl {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return fd
			}
		}
	}
	return nil
}

// findMsgKindType locates the named type MsgKind, declared in this
// package or in any package this one references.
func findMsgKindType(pass *Pass) *types.Named {
	for _, obj := range pass.TypesInfo.Uses {
		if n := msgKindOf(obj); n != nil {
			return n
		}
	}
	for _, obj := range pass.TypesInfo.Defs {
		if n := msgKindOf(obj); n != nil {
			return n
		}
	}
	return nil
}

func msgKindOf(obj types.Object) *types.Named {
	if obj == nil {
		return nil
	}
	if tn, ok := obj.(*types.TypeName); ok && tn.Name() == "MsgKind" {
		if n, ok := tn.Type().(*types.Named); ok {
			return n
		}
	}
	if n, ok := obj.Type().(*types.Named); ok && n.Obj().Name() == "MsgKind" {
		return n
	}
	return nil
}

// kindConstants lists every constant of the kind type declared in the
// type's own package, in scope-name order.
func kindConstants(kind *types.Named) []*types.Const {
	pkg := kind.Obj().Pkg()
	if pkg == nil {
		return nil
	}
	var out []*types.Const
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), kind) {
			out = append(out, c)
		}
	}
	return out
}

// reachableKindRefs collects the kind constants referenced by root or by
// any same-package function transitively called from it.
func reachableKindRefs(pass *Pass, root *ast.FuncDecl, kind *types.Named) map[*types.Const]bool {
	decls := packageFuncDecls(pass)
	refs := make(map[*types.Const]bool)
	visited := make(map[*ast.FuncDecl]bool)
	var visit func(fd *ast.FuncDecl)
	visit = func(fd *ast.FuncDecl) {
		if visited[fd] || fd.Body == nil {
			return
		}
		visited[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil {
				return true
			}
			if c, ok := obj.(*types.Const); ok && types.Identical(c.Type(), kind) {
				refs[c] = true
			}
			if callee, ok := decls[obj]; ok {
				visit(callee)
			}
			return true
		})
	}
	visit(root)
	return refs
}

// testFuncNames scans test files (parsed only: they may belong to an
// external _test package) for top-level functions whose name starts with
// prefix — "Fuzz" or "Benchmark" — and collects every identifier and
// selector name inside them and inside the test files' other top-level
// functions they name (a shared corpus helper), transitively. A kind
// counts as covered when its name appears — as `MsgData` or
// `core.MsgData` — in some such body.
func testFuncNames(files []*ast.File, prefix string) ([]*ast.FuncDecl, map[string]bool) {
	var funcs []*ast.FuncDecl
	helpers := make(map[string]*ast.FuncDecl)
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil {
				continue
			}
			if strings.HasPrefix(fd.Name.Name, prefix) {
				funcs = append(funcs, fd)
			} else {
				helpers[fd.Name.Name] = fd
			}
		}
	}
	names := make(map[string]bool)
	var collect func(body *ast.BlockStmt)
	collect = func(body *ast.BlockStmt) {
		ast.Inspect(body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id.Name] {
				names[id.Name] = true
				if h := helpers[id.Name]; h != nil {
					collect(h.Body)
				}
			}
			return true
		})
	}
	for _, fd := range funcs {
		collect(fd.Body)
	}
	return funcs, names
}
