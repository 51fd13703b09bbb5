package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //rblint:ignore escape hatch.
//
// A directive suppresses diagnostics of the named analyzer(s) on its own
// line — or, when the comment stands alone on a line, on the next line.
// The justification text is mandatory: an unexplained suppression is
// itself a finding, as are directives naming unknown analyzers and
// directives that suppress nothing (stale ignores, which outlive the
// code they excused and must be deleted).

const ignorePrefix = "//rblint:ignore"

// Ignore is one parsed, well-formed directive.
type Ignore struct {
	Pos       token.Pos
	Analyzers []string // validated analyzer names
	Reason    string
	// Line is the directive's own source line; it suppresses findings on
	// this line and the next. On the last line of a file — where no next
	// line exists — it covers the preceding line instead.
	Line int
	// LastLine is set when the directive sits on the file's final line.
	LastLine bool
	File     string
	// used is set when the directive suppresses at least one diagnostic.
	used bool
}

// parseIgnores extracts directives from the files' comments. Malformed
// directives (missing reason, unknown analyzer name) are reported as
// diagnostics under the "rblint" name; only well-formed directives can
// suppress anything.
func parseIgnores(fset *token.FileSet, files []*ast.File, valid map[string]bool) ([]*Ignore, []Diagnostic) {
	var ignores []*Ignore
	var problems []Diagnostic
	for _, f := range files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //rblint:ignorefoo — not our directive
				}
				ig, problem := parseIgnoreText(fset, c, strings.TrimSpace(rest), valid)
				if problem != "" {
					problems = append(problems, Diagnostic{
						Analyzer: "rblint",
						Pos:      c.Pos(),
						Message:  problem,
					})
					continue
				}
				ignores = append(ignores, ig)
			}
		}
	}
	return ignores, problems
}

// parseIgnoreText validates one directive body: "<analyzer>[,...] <reason>".
func parseIgnoreText(fset *token.FileSet, c *ast.Comment, body string, valid map[string]bool) (*Ignore, string) {
	if body == "" {
		return nil, "rblint:ignore needs an analyzer name and a justification: //rblint:ignore <analyzer> <reason>"
	}
	nameField, reason, _ := strings.Cut(body, " ")
	reason = strings.TrimSpace(reason)
	var names []string
	for _, name := range strings.Split(nameField, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !valid[name] {
			return nil, "rblint:ignore names unknown analyzer " + quoted(name) + " (have " + knownNames(valid) + ")"
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, "rblint:ignore needs an analyzer name and a justification: //rblint:ignore <analyzer> <reason>"
	}
	if reason == "" {
		return nil, "rblint:ignore for " + quoted(nameField) + " is missing its mandatory justification text"
	}
	pos := fset.Position(c.Pos())
	return &Ignore{
		Pos:       c.Pos(),
		Analyzers: names,
		Reason:    reason,
		Line:      pos.Line,
		LastLine:  pos.Line == fset.File(c.Pos()).LineCount(),
		File:      pos.Filename,
	}, ""
}

// applyIgnores filters diags through the directives: a diagnostic is
// suppressed when a directive for its analyzer covers its line. It
// returns the surviving diagnostics plus one "stale ignore" diagnostic
// for every directive that suppressed nothing.
func applyIgnores(fset *token.FileSet, ignores []*Ignore, diags []Diagnostic) []Diagnostic {
	type key struct {
		file string
		line int
		name string
	}
	index := make(map[key][]*Ignore)
	for _, ig := range ignores {
		for _, name := range ig.Analyzers {
			// A directive covers its own line (inline placement, after the
			// offending code) and the next line (standalone placement, on
			// the line above the offending code). On the file's final line
			// there is no next line to cover, so the directive reaches back
			// to the preceding line instead — otherwise a perfectly placed
			// end-of-file suppression would be reported as stale.
			index[key{ig.File, ig.Line, name}] = append(index[key{ig.File, ig.Line, name}], ig)
			index[key{ig.File, ig.Line + 1, name}] = append(index[key{ig.File, ig.Line + 1, name}], ig)
			if ig.LastLine && ig.Line > 1 {
				index[key{ig.File, ig.Line - 1, name}] = append(index[key{ig.File, ig.Line - 1, name}], ig)
			}
		}
	}
	var out []Diagnostic
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if matches := index[key{pos.Filename, pos.Line, d.Analyzer}]; len(matches) > 0 {
			for _, ig := range matches {
				ig.used = true
			}
			continue
		}
		out = append(out, d)
	}
	for _, ig := range ignores {
		if !ig.used {
			out = append(out, Diagnostic{
				Analyzer: "rblint",
				Pos:      ig.Pos,
				Message: "stale rblint:ignore directive: no " + strings.Join(ig.Analyzers, ",") +
					" diagnostic here to suppress — delete the directive",
			})
		}
	}
	return out
}

func quoted(s string) string { return "\"" + s + "\"" }

func knownNames(valid map[string]bool) string {
	var names []string
	for _, a := range Analyzers() {
		if valid[a.Name] {
			names = append(names, a.Name)
		}
	}
	return strings.Join(names, ", ")
}
