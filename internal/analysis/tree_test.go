package analysis_test

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"rbcast/internal/analysis"
)

// sweep runs the whole suite over pkgs against one call graph and
// returns the surviving findings, one "file:line:col: analyzer: message"
// line each, keyed by the directory of the file they are in.
func sweep(t *testing.T, loader *analysis.Loader, pkgs []*analysis.Package) map[string][]string {
	t.Helper()
	diags, err := analysis.Run(loader, pkgs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	lines := make(map[string][]string)
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		dir := filepath.Dir(pos.Filename)
		lines[dir] = append(lines[dir], fmt.Sprintf("%s: %s: %s", pos, d.Analyzer, d.Message))
	}
	return lines
}

// TestTreeIsClean is the lint gate: every analyzer of Analyzers() over every
// package of the module (cmd/, benchmarks/ and examples/ included), one
// loader, one whole-program call graph, ignore directives applied. Each
// package directory is a subtest, so a finding names its package and
// `-run 'TestTreeIsClean/internal/core'` reports on one.
func TestTreeIsClean(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadPatterns("./...")
	if err != nil {
		t.Fatalf("LoadPatterns: %v", err)
	}

	// A sweep that loaded nothing is clean too: count the package
	// directories as `go list ./...` finds them and hold the loader to it.
	dirs := make(map[string]bool)
	err = filepath.WalkDir(loader.ModRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != loader.ModRoot && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil || len(pkgs) < len(dirs) || len(pkgs) == 0 {
		t.Fatalf("sweep loaded %d packages; the module has %d package directories (walk error: %v)", len(pkgs), len(dirs), err)
	}

	findings := sweep(t, loader, pkgs)
	for _, pkg := range pkgs {
		rel, _ := filepath.Rel(loader.ModRoot, pkg.Dir)
		t.Run(filepath.ToSlash(rel), func(t *testing.T) {
			for _, line := range findings[pkg.Dir] {
				t.Error(line)
			}
		})
	}
}
