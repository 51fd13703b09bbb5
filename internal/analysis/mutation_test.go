package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rbcast/internal/analysis"
)

// Mutation tests: copy the real production sources into a temp package,
// verify the analyzer is silent on them, then apply a classic breaking
// edit and verify the analyzer bites. This is the acceptance proof that
// the provers track the *actual* tree, not just hand-built fixtures —
// module-internal imports of the copies resolve against the real module
// root.

// mutateDir copies the non-test .go files of srcDir into a temp dir,
// applying mutate to each file's text. It fails the test if a requested
// mutation (old != "") never matched.
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
		if old != "" && strings.Contains(src, old) {
			src = strings.Replace(src, old, new, 1)
			replaced = true
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatalf("WriteFile %s: %v", name, err)
		}
	}
	if old != "" && !replaced {
		t.Fatalf("mutation %q matched nothing under %s — the production source moved; update the test", old, srcDir)
	}
	return dir
}

// loadAs loads dir under asPath with a fresh loader (fresh, so the
// original and mutated copies of one import path never share a package
// cache).
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

// runOn runs a single analyzer over dir loaded under asPath.
func runOn(t *testing.T, a *analysis.Analyzer, dir, asPath string) []analysis.Diagnostic {
	t.Helper()
	loader, pkg := loadAs(t, dir, asPath)
	diags, err := analysis.RunPackage(loader, pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("RunPackage: %v", err)
	}
	return diags
}

// TestLaneLintMutation proves lanelint catches a global Schedule call
// smuggled into a real lane event: the hop step in
// internal/netsim/transmit.go, which reaches the engine only as a
// struct field (flight.run, bound once to the flight's step method).
func TestLaneLintMutation(t *testing.T) {
	clean := mutateDir(t, "../netsim", "", "")
	if diags := runOn(t, analysis.LaneLint, clean, "rbcast/internal/netsim"); len(diags) != 0 {
		t.Fatalf("lanelint not clean on unmutated netsim: %v", diags[0].Message)
	}

	mutated := mutateDir(t, "../netsim",
		"func (f *flight) step() {\n\tn := f.net\n",
		"func (f *flight) step() {\n\tn := f.net\n\tn.eng.Schedule(0, func() {})\n")
	diags := runOn(t, analysis.LaneLint, mutated, "rbcast/internal/netsim")
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "sim.Loop.Schedule addresses the global coordinator context") {
			found = true
		}
	}
	if !found {
		t.Errorf("lanelint missed the smuggled Schedule call; got %d diagnostics", len(diags))
		for _, d := range diags {
			t.Logf("  %s", d.Message)
		}
	}
}

// TestMonoLintMutation proves monolint follows the MAP state into the
// per-peer table record: a membership-shrinking write to a peer's view
// or confirmed set, or a record dropped from the table, smuggled into an
// unapproved function of the real internal/core, is a finding.
func TestMonoLintMutation(t *testing.T) {
	clean := mutateDir(t, "../core", "", "")
	if diags := runOn(t, analysis.MonoLint, clean, "rbcast/internal/core"); len(diags) != 0 {
		t.Fatalf("monolint not clean on unmutated core: %v", diags[0].Message)
	}

	const anchor = "func (h *Host) afterInfo(now time.Duration, from *peer, parent HostID) {\n"
	for _, m := range []struct{ smuggled, want string }{
		{"\tfrom.confirmed.Prune(1)\n", "peer.confirmed mutated outside the approved mutator set"},
		{"\tfrom.view = seqset.Set{}\n", "peer.view written outside the approved mutator set"},
		{"\tfrom.view.Assign(seqset.Set{})\n", "peer.view mutated outside the approved mutator set"},
		{"\th.table[0] = nil\n", "Host.table written outside the approved mutator set"},
	} {
		mutated := mutateDir(t, "../core", anchor, anchor+m.smuggled)
		diags := runOn(t, analysis.MonoLint, mutated, "rbcast/internal/core")
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, m.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("monolint missed %q smuggled into afterInfo; got %d diagnostics", strings.TrimSpace(m.smuggled), len(diags))
			for _, d := range diags {
				t.Logf("  %s", d.Message)
			}
		}
	}
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
