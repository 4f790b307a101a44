package analysis

import (
	"go/ast"
	"go/types"
)

// Detrand forbids nondeterministic time and randomness sources inside the
// deterministic package trees: `time.Now`/`time.Since`/`time.Until` and every
// package-level math/rand function that draws from the global source. Seeded
// generators made from the seed a world was given (rand.New) are the sanctioned
// source, so the constructors (rand.New, rand.NewSource, rand.NewZipf) and
// all methods on a *rand.Rand value remain allowed.
var Detrand = &Analyzer{
	Name: "detrand",
	Doc: "forbid wall-clock time and global math/rand in deterministic packages; " +
		"thread a *rand.Rand made by rand.New from the world's seed instead",
	Run: runDetrand,
}

// detrandAllowedRand are math/rand package-level functions that do not touch
// the global source.
var detrandAllowedRand = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2 seeded sources
	"NewChaCha8": true,
}

func runDetrand(pass *Pass) error {
	if !SimulatedPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					pass.Reportf(call.Pos(),
						"time.%s in deterministic package %s: simulated code must use engine cycles (Proc.Now)",
						fn.Name(), pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				if !detrandAllowedRand[fn.Name()] {
					pass.Reportf(call.Pos(),
						"global rand.%s in deterministic package %s: thread a seeded *rand.Rand (rand.New from the world's seed)",
						fn.Name(), pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}
