package analysis_test

import (
	"strings"
	"testing"

	"rbcast/internal/analysis"
)

// loadCallgraphProgram type-checks the callgraph fixture and builds the
// whole-program view over it (call-graph resolution needs real type
// information for method values and class hierarchy analysis).
func loadCallgraphProgram(t *testing.T) *analysis.Program {
	t.Helper()
	loader := fixtureLoader(t)
	pkg, err := loader.Load("testdata/callgraph", "")
	if err != nil {
		t.Fatal(err)
	}
	return analysis.NewProgram(loader.Fset, []*analysis.Package{pkg})
}

func nodeByName(t *testing.T, prog *analysis.Program, name string) *analysis.FuncNode {
	t.Helper()
	for _, n := range prog.Graph.Nodes {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("no node named %s", name)
	return nil
}

// TestCallGraphGolden pins the exact edge list: deterministic node
// order, edge kinds (call/go/defer), and which resolutions are dynamic
// (method value by signature, interface call by hierarchy).
func TestCallGraphGolden(t *testing.T) {
	prog := loadCallgraphProgram(t)
	want := strings.Join([]string{
		"cg.Static -> cg.helper [call]",
		"cg.SpawnClosure -> cg.SpawnClosure$1 [go]",
		"cg.SpawnClosure$1 -> cg.helper [call]",
		"cg.DeferCall -> cg.helper [defer]",
		"cg.MethodValue -> cg.(*T).M [call] dyn",
		"cg.ViaInterface -> cg.(*T).M [call] dyn",
		"cg.AfterFuncCallback -> cg.AfterFuncCallback$1 [go]",
		"cg.AfterFuncCallback$1 -> cg.helper [call]",
	}, "\n") + "\n"
	if got := prog.Graph.String(); got != want {
		t.Errorf("call graph:\n%swant:\n%s", got, want)
	}
}

// TestCallGraphStructure covers the graph API the analyzers lean on:
// the literal-to-encloser Parent chain and the node lookups.
func TestCallGraphStructure(t *testing.T) {
	prog := loadCallgraphProgram(t)

	lit := nodeByName(t, prog, "cg.SpawnClosure$1")
	if enc := lit.EnclosingDecl(); enc == nil || enc.Name != "cg.SpawnClosure" {
		t.Errorf("EnclosingDecl(SpawnClosure$1) = %v", enc)
	}
	if lit.Lit == nil || prog.Graph.NodeOfLit(lit.Lit) != lit {
		t.Error("NodeOfLit does not round-trip the spawned literal")
	}

	static := nodeByName(t, prog, "cg.Static")
	if static.Obj == nil || prog.Graph.NodeOf(static.Obj) != static {
		t.Error("NodeOf does not round-trip a declared function")
	}
}

// BenchmarkCallGraph measures whole-program call-graph construction —
// node discovery, static/go/defer edges, address-taken collection, and
// CHA-style dynamic resolution — over every package in the module.
// Loading and type-checking happen once outside the timer; the loop
// measures pure graph-building cost, the fixed overhead every
// whole-program analyzer pays per sweep of the tree.
func BenchmarkCallGraph(b *testing.B) {
	b.ReportAllocs()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns("./...")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := analysis.NewProgram(loader.Fset, pkgs)
		if p.Graph == nil || len(p.Graph.Nodes) == 0 {
			b.Fatal("empty call graph")
		}
	}
}
