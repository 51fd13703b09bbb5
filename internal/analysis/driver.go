package analysis

import "fmt"

// RunPackage applies every analyzer to one loaded package and applies
// the package's //rblint:ignore directives (parsed from its non-test
// files) to the findings. Directive problems — missing reason, unknown
// analyzer name, stale directive — come back as "rblint" diagnostics.
//
// The package is analyzed as a whole program by itself: the call graph
// and function summaries cover exactly this package. Cross-package
// facts (a goroutine spawned in live reaching code in udp) need the
// multi-package Run entry point, which shares one Program across every
// loaded package.
func RunPackage(loader *Loader, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	prog := NewProgram(loader.Fset, []*Package{pkg})
	return runPackage(loader, prog, pkg, analyzers)
}

// runPackage is the shared per-package pass driver; prog spans at least
// pkg and supplies the interprocedural facts.
func runPackage(loader *Loader, prog *Program, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	valid := make(map[string]bool)
	for _, a := range analyzers {
		valid[a.Name] = true
	}
	ignores, problems := parseIgnores(loader.Fset, pkg.Files, valid)

	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      loader.Fset,
			Files:     pkg.Files,
			TestFiles: pkg.TestFiles,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Dir:       pkg.Dir,
			ModRoot:   loader.ModRoot,
			Prog:      prog,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		diags = append(diags, pass.diagnostics...)
	}
	diags = applyIgnores(loader.Fset, ignores, diags)
	diags = append(diags, problems...)
	sortDiagnostics(loader.Fset, diags)
	return diags, nil
}

// Run applies the full analyzer suite to each of pkgs against one
// whole-program call graph built over all of them — so spawn edges, lock
// orders, and taint summaries cross package boundaries — and returns
// every diagnostic that survives the ignore directives, in file order.
// The tree sweep (TestTreeIsClean) is Run over loader.LoadPatterns("./...").
func Run(loader *Loader, pkgs []*Package) ([]Diagnostic, error) {
	prog := NewProgram(loader.Fset, pkgs)
	var all []Diagnostic
	for _, pkg := range pkgs {
		diags, err := runPackage(loader, prog, pkg, Analyzers())
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	sortDiagnostics(loader.Fset, all)
	return all, nil
}
