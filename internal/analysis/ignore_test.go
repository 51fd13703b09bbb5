package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

var ignoreTestValid = map[string]bool{"detlint": true, "locklint": true}

func parseIgnoreSrc(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ignoretest.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, []*ast.File{f}
}

// lineStart returns a Pos on the given 1-based line of the single test
// file, for fabricating diagnostics.
func lineStart(t *testing.T, fset *token.FileSet, files []*ast.File, line int) token.Pos {
	t.Helper()
	return fset.File(files[0].Pos()).LineStart(line)
}

func TestIgnoreMissingReason(t *testing.T) {
	fset, files := parseIgnoreSrc(t, `package p

//rblint:ignore detlint
func f() {}
`)
	ignores, problems := parseIgnores(fset, files, ignoreTestValid)
	if len(ignores) != 0 {
		t.Fatalf("malformed directive parsed as valid: %+v", ignores[0])
	}
	if len(problems) != 1 || !strings.Contains(problems[0].Message, "missing its mandatory justification") {
		t.Fatalf("problems = %+v, want one missing-justification diagnostic", problems)
	}
}

func TestIgnoreEmptyBody(t *testing.T) {
	fset, files := parseIgnoreSrc(t, `package p

//rblint:ignore
func f() {}
`)
	ignores, problems := parseIgnores(fset, files, ignoreTestValid)
	if len(ignores) != 0 {
		t.Fatalf("empty directive parsed as valid")
	}
	if len(problems) != 1 || !strings.Contains(problems[0].Message, "needs an analyzer name and a justification") {
		t.Fatalf("problems = %+v, want one usage diagnostic", problems)
	}
}

func TestIgnoreUnknownAnalyzer(t *testing.T) {
	fset, files := parseIgnoreSrc(t, `package p

//rblint:ignore nosuchlint the reason does not save it
func f() {}
`)
	ignores, problems := parseIgnores(fset, files, ignoreTestValid)
	if len(ignores) != 0 {
		t.Fatalf("directive with unknown analyzer parsed as valid")
	}
	if len(problems) != 1 || !strings.Contains(problems[0].Message, `unknown analyzer "nosuchlint"`) {
		t.Fatalf("problems = %+v, want one unknown-analyzer diagnostic", problems)
	}
}

func TestIgnoreUnrelatedCommentsSkipped(t *testing.T) {
	fset, files := parseIgnoreSrc(t, `package p

// plain comment
//rblint:ignoreX not our directive (no separator after prefix)
func f() {}
`)
	ignores, problems := parseIgnores(fset, files, ignoreTestValid)
	if len(ignores) != 0 || len(problems) != 0 {
		t.Fatalf("ignores=%v problems=%v, want none", ignores, problems)
	}
}

func TestIgnoreSuppressesOwnAndNextLine(t *testing.T) {
	fset, files := parseIgnoreSrc(t, `package p

//rblint:ignore detlint justified: next-line coverage
func f() {}

func g() {} //rblint:ignore detlint justified: same-line coverage
`)
	ignores, problems := parseIgnores(fset, files, ignoreTestValid)
	if len(problems) != 0 || len(ignores) != 2 {
		t.Fatalf("ignores=%d problems=%v, want 2 and none", len(ignores), problems)
	}
	diags := []Diagnostic{
		{Analyzer: "detlint", Pos: lineStart(t, fset, files, 4), Message: "on the line after a standalone directive"},
		{Analyzer: "detlint", Pos: lineStart(t, fset, files, 6), Message: "on an inline directive's own line"},
	}
	out := applyIgnores(fset, ignores, diags)
	if len(out) != 0 {
		t.Fatalf("diagnostics survived suppression: %+v", out)
	}
}

func TestIgnoreStale(t *testing.T) {
	fset, files := parseIgnoreSrc(t, `package p

//rblint:ignore detlint justified but pointless: nothing here to suppress
func f() {}
`)
	ignores, problems := parseIgnores(fset, files, ignoreTestValid)
	if len(problems) != 0 || len(ignores) != 1 {
		t.Fatalf("ignores=%d problems=%v, want 1 and none", len(ignores), problems)
	}
	out := applyIgnores(fset, ignores, nil)
	if len(out) != 1 || !strings.Contains(out[0].Message, "stale rblint:ignore directive") {
		t.Fatalf("out = %+v, want one stale-directive diagnostic", out)
	}
}

// TestIgnoreLastLineOfFile is the regression test for the end-of-file
// edge case: a directive on the file's final line has no next line to
// cover, so it must reach back to the preceding line instead of being
// reported stale.
func TestIgnoreLastLineOfFile(t *testing.T) {
	// No trailing newline: the directive's line IS the last line.
	fset, files := parseIgnoreSrc(t, `package p

func f() {}
//rblint:ignore detlint justified: suppresses the line above at EOF`)
	ignores, problems := parseIgnores(fset, files, ignoreTestValid)
	if len(problems) != 0 || len(ignores) != 1 {
		t.Fatalf("ignores=%d problems=%v, want 1 and none", len(ignores), problems)
	}
	if !ignores[0].LastLine {
		t.Fatalf("directive on line %d not recognized as last-line (LineCount=%d)",
			ignores[0].Line, fset.File(files[0].Pos()).LineCount())
	}
	diags := []Diagnostic{
		{Analyzer: "detlint", Pos: lineStart(t, fset, files, 3), Message: "finding on the line before an EOF directive"},
	}
	out := applyIgnores(fset, ignores, diags)
	if len(out) != 0 {
		t.Fatalf("diagnostics survived an end-of-file directive: %+v", out)
	}
}

// TestIgnoreLastLineStillStaleWhenUnused keeps the widened coverage
// honest: an EOF directive with nothing to suppress anywhere nearby is
// still stale.
func TestIgnoreLastLineStillStaleWhenUnused(t *testing.T) {
	fset, files := parseIgnoreSrc(t, `package p

func f() {}
//rblint:ignore detlint justified wording, but nothing here fires`)
	ignores, problems := parseIgnores(fset, files, ignoreTestValid)
	if len(problems) != 0 || len(ignores) != 1 {
		t.Fatalf("ignores=%d problems=%v, want 1 and none", len(ignores), problems)
	}
	out := applyIgnores(fset, ignores, nil)
	if len(out) != 1 || !strings.Contains(out[0].Message, "stale rblint:ignore directive") {
		t.Fatalf("out = %+v, want one stale-directive diagnostic", out)
	}
}

func TestIgnoreWrongAnalyzerDoesNotSuppress(t *testing.T) {
	fset, files := parseIgnoreSrc(t, `package p

//rblint:ignore locklint justified, but the finding below is detlint's
func f() {}
`)
	ignores, problems := parseIgnores(fset, files, ignoreTestValid)
	if len(problems) != 0 || len(ignores) != 1 {
		t.Fatalf("ignores=%d problems=%v, want 1 and none", len(ignores), problems)
	}
	diags := []Diagnostic{
		{Analyzer: "detlint", Pos: lineStart(t, fset, files, 4), Message: "a detlint finding"},
	}
	out := applyIgnores(fset, ignores, diags)
	// The detlint finding survives AND the locklint directive is stale.
	var sawFinding, sawStale bool
	for _, d := range out {
		if d.Analyzer == "detlint" {
			sawFinding = true
		}
		if strings.Contains(d.Message, "stale rblint:ignore directive") {
			sawStale = true
		}
	}
	if len(out) != 2 || !sawFinding || !sawStale {
		t.Fatalf("out = %+v, want the surviving finding plus a stale-directive diagnostic", out)
	}
}

func TestIgnoreMultipleAnalyzers(t *testing.T) {
	fset, files := parseIgnoreSrc(t, `package p

//rblint:ignore detlint,locklint justified: one directive, two analyzers
func f() {}
`)
	ignores, problems := parseIgnores(fset, files, ignoreTestValid)
	if len(problems) != 0 || len(ignores) != 1 {
		t.Fatalf("ignores=%d problems=%v, want 1 and none", len(ignores), problems)
	}
	diags := []Diagnostic{
		{Analyzer: "detlint", Pos: lineStart(t, fset, files, 4), Message: "detlint finding"},
		{Analyzer: "locklint", Pos: lineStart(t, fset, files, 4), Message: "locklint finding"},
	}
	out := applyIgnores(fset, ignores, diags)
	if len(out) != 0 {
		t.Fatalf("diagnostics survived a multi-analyzer directive: %+v", out)
	}
}
