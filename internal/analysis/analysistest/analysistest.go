// Package analysistest runs one analyzer over a testdata package and
// compares its diagnostics against expectations embedded in the source,
// mirroring golang.org/x/tools/go/analysis/analysistest with the
// repository's stdlib-only framework.
//
// An expectation is a comment of the form
//
//	// want `regexp` `another regexp`
//
// on the line a diagnostic is reported at. Every diagnostic must match
// one expectation on its line and every expectation must be matched by
// a diagnostic; the regexps are backtick-quoted so messages containing
// double quotes stay readable.
package analysistest

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"rbcast/internal/analysis"
)

// Run loads the package in dir (relative to the caller's working
// directory), checks it under asPath (empty derives the real path —
// useful to keep a testdata package OUT of an analyzer's scope), runs
// the analyzer plus the //rblint:ignore machinery, and diffs diagnostics
// against the package's want comments. Fixtures may share one loader,
// which type-checks the standard library once for all of them: testdata
// packages never enter its cache, so two fixtures checked under one
// assumed path do not meet.
func Run(t *testing.T, loader *analysis.Loader, a *analysis.Analyzer, dir, asPath string) {
	t.Helper()
	pkg, err := loader.Load(dir, asPath)
	if err != nil {
		t.Fatalf("Load %s: %v", dir, err)
	}
	diags, err := analysis.RunPackage(loader, pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("RunPackage: %v", err)
	}

	type lineKey struct {
		file string
		line int
	}
	wants := make(map[lineKey][]*regexp.Regexp)
	files := append(append([]*ast.File(nil), pkg.Files...), pkg.TestFiles...)
	for _, f := range files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				patterns, ok := parseWant(t, loader.Fset, c)
				if !ok {
					continue
				}
				pos := loader.Fset.Position(c.Pos())
				k := lineKey{pos.Filename, pos.Line}
				wants[k] = append(wants[k], patterns...)
			}
		}
	}

	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		k := lineKey{pos.Filename, pos.Line}
		matched := -1
		for i, re := range wants[k] {
			if re != nil && re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s: unexpected diagnostic: %s: %s", pos, d.Analyzer, d.Message)
			continue
		}
		wants[k][matched] = nil // consumed
	}
	for k, res := range wants {
		for _, re := range res {
			if re != nil {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
	}
}

// parseWant extracts the backtick-quoted regexps from a `// want`
// comment; ok is false for any other comment.
func parseWant(t *testing.T, fset *token.FileSet, c *ast.Comment) ([]*regexp.Regexp, bool) {
	t.Helper()
	text, found := strings.CutPrefix(c.Text, "//")
	if !found {
		return nil, false
	}
	text = strings.TrimSpace(text)
	text, found = strings.CutPrefix(text, "want ")
	if !found {
		return nil, false
	}
	var out []*regexp.Regexp
	for {
		start := strings.IndexByte(text, '`')
		if start < 0 {
			break
		}
		end := strings.IndexByte(text[start+1:], '`')
		if end < 0 {
			t.Errorf("%s: unterminated `regexp` in want comment", fset.Position(c.Pos()))
			break
		}
		expr := text[start+1 : start+1+end]
		re, err := regexp.Compile(expr)
		if err != nil {
			t.Errorf("%s: bad want regexp %q: %v", fset.Position(c.Pos()), expr, err)
		} else {
			out = append(out, re)
		}
		text = text[start+1+end+1:]
	}
	if len(out) == 0 {
		t.Errorf("%s: want comment with no `regexp` expectations", fset.Position(c.Pos()))
	}
	return out, true
}
