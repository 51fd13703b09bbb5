package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rbcast/internal/analysis"
)

// Mutation test: copy the real production sources into a temp package,
// apply a classic breaking edit and verify the sweep bites. This is the
// acceptance proof that the analyzers track the *actual* tree, not just
// hand-built fixtures — module-internal imports of the copy resolve
// against the real module root.

// mutateDir copies the non-test .go files of srcDir into a temp dir,
// replacing the first occurrence of old in each file with new. It fails the test if
// old never matched.
func mutateDir(t *testing.T, srcDir, old, new string) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatalf("ReadDir %s: %v", srcDir, err)
	}
	replaced := false
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			t.Fatalf("ReadFile %s: %v", name, err)
		}
		src := string(data)
		if strings.Contains(src, old) {
			src = strings.Replace(src, old, new, 1)
			replaced = true
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatalf("WriteFile %s: %v", name, err)
		}
	}
	if !replaced {
		t.Fatalf("mutation %q matched nothing under %s — the production source moved; update the test", old, srcDir)
	}
	return dir
}

// loadAs loads dir under asPath with a fresh loader (fresh, so a mutated
// copy never shares a package cache with the real package).
func loadAs(t *testing.T, dir, asPath string) (*analysis.Loader, *analysis.Package) {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.Load(dir, asPath)
	if err != nil {
		t.Fatalf("Load %s: %v", dir, err)
	}
	return loader, pkg
}

// TestTreeSweepBites proves the gate TestTreeIsClean is: the same sweep,
// over the real internal/core with one wall-clock read smuggled in,
// reports it under detlint.
func TestTreeSweepBites(t *testing.T) {
	const anchor = "func (h *Host) afterInfo(now time.Duration, from *peer, parent HostID) {\n"
	mutated := mutateDir(t, "../core", anchor, anchor+"\t_ = time.Now()\n")
	loader, pkg := loadAs(t, mutated, "rbcast/internal/core")
	lines := sweep(t, loader, []*analysis.Package{pkg})[mutated]
	for _, line := range lines {
		if strings.Contains(line, ": detlint: ") && strings.Contains(line, "time.Now") {
			return
		}
	}
	t.Errorf("the sweep missed time.Now() smuggled into core.afterInfo; it reported %q", lines)
}
