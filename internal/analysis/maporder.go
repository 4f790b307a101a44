package analysis

import (
	"go/ast"
	"go/types"
)

// Maporder flags every `range` over a map in the simulated packages: Go
// randomizes map iteration order per range, so any effect that depends on
// visit order (appending to a slice that feeds the engine, calling into code
// that advances clocks, emits spans/metrics or issues I/O, overwriting outer
// state) makes two identical runs diverge.
//
// The rule is "sorted or annotated" and judges no loop body. Iterate
// slices.Sorted(maps.Keys(m)) — a slice, so nothing to flag — or state above
// the loop why its order cannot matter:
//
//	//aqlint:sorted -- reason
//
// The rule rests on that reason, so a directive without one suppresses
// nothing and is itself a finding.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc: "flag range over maps in deterministic packages; " +
		"iterate slices.Sorted(maps.Keys(m)) or annotate //aqlint:sorted -- reason",
	Run: runMaporder,
}

func runMaporder(pass *Pass) error {
	if !SimulatedPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if reason, ok := parseDirective(c.Text); ok && reason == "" {
					pass.Reportf(c.Pos(),
						"//aqlint:sorted without a reason suppresses nothing: "+
							"say after \" -- \" why the iteration order cannot matter")
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); isMap {
				pass.Reportf(rng.Pos(),
					"map iteration order can leak into simulated state; "+
						"iterate slices.Sorted(maps.Keys(m)) or annotate //aqlint:sorted -- reason")
			}
			return true
		})
	}
	return nil
}
