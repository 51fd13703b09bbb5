package analysis

import "fmt"

// RunPackage applies every analyzer to one loaded package and applies
// the package's //rblint:ignore directives (parsed from its non-test
// files) to the findings. Directive problems — missing reason, unknown
// analyzer name, stale directive — come back as "rblint" diagnostics.
func RunPackage(loader *Loader, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
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

// Run applies the full analyzer suite to each of pkgs, one package at a
// time, and returns every diagnostic that survives the ignore directives,
// in file order. The tree sweep (TestTreeIsClean) is Run over
// loader.LoadPatterns("./...").
func Run(loader *Loader, pkgs []*Package) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		diags, err := RunPackage(loader, pkg, Analyzers())
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	sortDiagnostics(loader.Fset, all)
	return all, nil
}
