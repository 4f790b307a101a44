package analysis

import "sort"

// RunResult is every surviving (unsuppressed) finding of one driver run.
type RunResult struct {
	Findings []Finding
	// Suppressed counts maporder findings silenced by //aqlint:sorted.
	Suppressed int
}

// Run executes the analyzers over the packages, applies the //aqlint:sorted
// directives to maporder's findings, and returns the surviving findings
// sorted by position for deterministic output.
func Run(pkgs []*Package, analyzers []*Analyzer) (*RunResult, error) {
	res := &RunResult{}
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg)
		for _, a := range analyzers {
			var diags []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				if a == Maporder && sup[lineKey{pos.Filename, pos.Line}] {
					res.Suppressed++
					continue
				}
				res.Findings = append(res.Findings, Finding{
					Analyzer: a.Name, Pkg: pkg.PkgPath, Pos: pos,
					Message: d.Message,
				})
			}
		}
	}
	// Fully deterministic cross-package order: package path, then file, then
	// byte offset (finer than line/column and immune to formatting), then
	// analyzer name. Independent of the order packages were passed in.
	sort.Slice(res.Findings, func(i, j int) bool {
		fi, fj := res.Findings[i], res.Findings[j]
		if fi.Pkg != fj.Pkg {
			return fi.Pkg < fj.Pkg
		}
		if fi.Pos.Filename != fj.Pos.Filename {
			return fi.Pos.Filename < fj.Pos.Filename
		}
		if fi.Pos.Offset != fj.Pos.Offset {
			return fi.Pos.Offset < fj.Pos.Offset
		}
		return fi.Analyzer < fj.Analyzer
	})
	return res, nil
}
