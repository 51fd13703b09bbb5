// Package analysis is a protocol-aware static analysis suite for this
// repository. It runs inside `go test`: TestTreeIsClean applies every
// analyzer to every package of the module and fails on any finding.
//
// The protocol's correctness claims rest on properties the Go compiler
// cannot see: simulation and soak runs must be bit-deterministic for
// seeded replay and shrinking to work, the host state machine must never
// block while a runtime mutex is held, every protocol tunable must be
// validated and documented, and every wire message kind must survive the
// codec and be fuzzed. The analyzers here enforce those contracts
// mechanically on every change instead of leaving them to soak failures.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is self-contained: the module has no
// dependencies, so packages are loaded and type-checked with the
// standard library alone (go/parser + go/types + the source importer).
//
// Findings can be suppressed with a justification:
//
//	//rblint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory; directives naming unknown analyzers or
// suppressing nothing (stale ignores) are themselves reported. See
// README.md in this directory for per-analyzer documentation.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //rblint:ignore directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through pass.Report.
	Run func(pass *Pass) error
}

// Analyzers lists every analyzer in the suite, in the order the driver
// runs them.
func Analyzers() []*Analyzer {
	return []*Analyzer{AllocLint, DetLint, LaneLint, LeakLint, LockLint, MonoLint, OrdLint, ParamLint, ShareLint, TaintLint, WireLint}
}

// A Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's type-checked, non-test source files.
	Files []*ast.File
	// TestFiles are the package directory's _test.go files, parsed but
	// not type-checked (they may belong to an external _test package).
	TestFiles []*ast.File
	// Pkg and TypesInfo hold the type checker's output for Files.
	Pkg       *types.Package
	TypesInfo *types.Info
	// Dir is the package directory on disk.
	Dir string
	// ModRoot is the module root directory (where go.mod lives).
	ModRoot string
	// Prog is the whole-program view (call graph plus memoized function
	// summaries) shared by every package analyzed in one run. The
	// whole-program analyzers (sharelint, ordlint, alloclint) and the
	// interprocedural parts of taintlint/leaklint consume it; per-package
	// analyzers may ignore it.
	Prog *Program

	diagnostics []Diagnostic
}

// Reportf records one finding at pos. Exact duplicates (same analyzer,
// position, and message — e.g. from nested map-range loops both seeing
// one emit call) are recorded once.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Report records one finding, with the same deduplication as Reportf.
// The Analyzer field is filled in if left empty.
func (p *Pass) Report(d Diagnostic) {
	if d.Analyzer == "" {
		d.Analyzer = p.Analyzer.Name
	}
	for _, have := range p.diagnostics {
		if have.Analyzer == d.Analyzer && have.Pos == d.Pos && have.Message == d.Message {
			return
		}
	}
	p.diagnostics = append(p.diagnostics, d)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	// Analyzer names the analyzer that produced the finding ("rblint"
	// for driver-level directive problems).
	Analyzer string
	Pos      token.Pos
	Message  string
}

// sortDiagnostics orders findings by file position for stable output.
func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}
