package analysis

import (
	"go/ast"
	"go/types"
)

// Cyclecost guards the transition-cost surface (paper §3.3/§4.1): inside the
// simulated CPU/runtime layers, every raw clock advance — Proc.Advance*/
// WaitUntil/SleepIO, Hypervisor.VMCall handler cycles, IPI receive costs,
// Runtime.charge — must name a calibrated cost: a named constant (cpu.TrapRing3,
// core's costHashLookup, …), declared once with its source. A bare integer
// literal in the cycles argument is an uncalibrated magic number: it silently
// skews the fig7/fig8 breakdowns, and an audit of the cost model that reads
// the constant declarations never sees it.
//
// Literal zero is allowed (explicit no-op), as is any expression that
// mentions at least one named cost source.
var Cyclecost = &Analyzer{
	Name: "cyclecost",
	Doc: "raw clock advances on the transition-cost surface must charge a " +
		"named cost constant, not integer literals",
	Run: runCyclecost,
}

// cycleArgIndex maps receiver type name -> method name -> index of the
// cycles argument that must be cost-table-traceable.
var cycleArgIndex = map[string]map[string]int{
	"Proc": {
		"AdvanceUser":   0,
		"AdvanceSystem": 0,
		"Advance":       1,
		"WaitUntil":     0,
		"SleepIO":       0,
	},
	"Hypervisor": {
		"VMCall":            1,
		"SendShootdownIPIs": 2,
	},
	"Runtime": {
		"charge": 2,
	},
}

func runCyclecost(pass *Pass) error {
	if !CycleAccountedPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			methods, ok := cycleArgIndex[recvTypeName(sig.Recv().Type())]
			if !ok {
				return true
			}
			idx, ok := methods[fn.Name()]
			if !ok || idx >= len(call.Args) {
				return true
			}
			arg := call.Args[idx]
			if literalOnlyInt(arg) && !isConstZero(pass.TypesInfo, arg) {
				pass.Reportf(arg.Pos(),
					"uncalibrated cycle literal in %s.%s: charge a named cost constant",
					recvTypeName(sig.Recv().Type()), fn.Name())
			}
			return true
		})
	}
	return nil
}

// recvTypeName returns the bare type name of a method receiver ("Proc" for
// *engine.Proc).
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// literalOnlyInt reports whether the expression is built entirely from
// integer literals (no identifiers, fields, or calls anywhere).
func literalOnlyInt(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return literalOnlyInt(x.X)
	case *ast.UnaryExpr:
		return literalOnlyInt(x.X)
	case *ast.BinaryExpr:
		return literalOnlyInt(x.X) && literalOnlyInt(x.Y)
	default:
		return false
	}
}

// isConstZero reports whether the expression is the constant 0.
func isConstZero(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil && tv.Value.String() == "0"
}
