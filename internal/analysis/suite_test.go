package analysis_test

import (
	"path/filepath"
	"sync"
	"testing"

	"rbcast/internal/analysis"
	"rbcast/internal/analysis/analysistest"
)

// fixtureLoader returns the one loader the testdata fixtures share, so
// the standard library is type-checked from source once for all of
// them. Testdata packages never enter a loader's cache, so fixtures
// checked under one assumed import path do not meet in it. Anything that
// loads a copy of a real package (the mutation tests) takes a fresh
// loader instead.
func fixtureLoader(t *testing.T) *analysis.Loader {
	t.Helper()
	loader, err := newFixtureLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return loader
}

var newFixtureLoader = sync.OnceValues(func() (*analysis.Loader, error) { return analysis.NewLoader(".") })

// TestAnalyzers runs every analyzer over its testdata package. Each
// package contains both triggering code (marked with `// want` comment
// expectations) and non-triggering counterparts; analysistest fails on
// any missing or unexpected diagnostic.
func TestAnalyzers(t *testing.T) {
	tests := []struct {
		name     string
		analyzer *analysis.Analyzer
		dir      string
		// asPath is the import path the package is checked under; empty
		// uses the real testdata path, which keeps the package outside
		// path-scoped analyzers' jurisdiction.
		asPath string
	}{
		{"detlint/deterministic-package", analysis.DetLint, "testdata/det", "rbcast/internal/core"},
		{"detlint/out-of-scope-package", analysis.DetLint, "testdata/detclean", ""},
		{"locklint", analysis.LockLint, "testdata/lock", ""},
		{"paramlint", analysis.ParamLint, "testdata/param", ""},
		{"wirelint", analysis.WireLint, "testdata/wire", ""},
		{"ignore-directive", analysis.DetLint, "testdata/ignoretd", "rbcast/internal/core"},
	}
	loader := fixtureLoader(t)
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			analysistest.Run(t, loader, tt.analyzer, tt.dir, tt.asPath)
		})
	}
}

// BenchmarkRBLintSuite measures each analyzer of the suite on its own,
// one sub-benchmark per entry of Analyzers(), over the protocol state
// machine package and the simulated network package (core is the most
// analyzer-dense package). Loading and type-checking happen once outside
// the timer; every iteration parses each package's ignore directives
// afresh, so a figure is that fixed cost — the "none" case, no analyzer
// at all — plus the analyzer's own walks.
func BenchmarkRBLintSuite(b *testing.B) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		b.Fatal(err)
	}
	var pkgs []*analysis.Package
	for _, name := range []string{"core", "netsim"} {
		pkg, err := loader.Load(filepath.Join(loader.ModRoot, "internal", name), "rbcast/internal/"+name)
		if err != nil {
			b.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	run := func(name string, suite []*analysis.Analyzer) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, pkg := range pkgs {
					if _, err := analysis.RunPackage(loader, pkg, suite); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	run("none", nil)
	for _, a := range analysis.Analyzers() {
		run(a.Name, []*analysis.Analyzer{a})
	}
}
