package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
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
// Literal zero is allowed (explicit no-op). Otherwise an integer literal is a
// finding when it is a term of the cycles sum (`x + 30`), or a factor of a
// term that names no cost (`lines*12`): such a number is charged as cycles
// however calibrated the rest of the expression is. A term names a cost when
// it mentions a named constant, a field or a call; a local count does not.
// Literals inside a call or a nested sum (`ioRetryBackoff*uint64(attempt+1)`)
// are operands, not cycle terms.
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
			if isConstZero(pass.TypesInfo, arg) {
				return true
			}
			if uncalibratedTerm(pass.TypesInfo, arg) {
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

// uncalibratedTerm reports whether a term of the sum e is built of integer
// literals alone, or has such a factor while no factor names a cost.
func uncalibratedTerm(info *types.Info, e ast.Expr) bool {
	for _, term := range splitOp(info, e, token.ADD, token.SUB) {
		factors := splitOp(info, term, token.MUL, token.QUO)
		lit, cost := false, false
		for _, f := range factors {
			lit = lit || literalOnlyInt(f)
			cost = cost || namesCost(info, f)
		}
		if lit && (len(factors) == 1 || !cost) {
			return true
		}
	}
	return false
}

// splitOp flattens e over the given binary operators, looking through
// parentheses and type conversions.
func splitOp(info *types.Info, e ast.Expr, ops ...token.Token) []ast.Expr {
	e = unconvert(info, e)
	if b, ok := e.(*ast.BinaryExpr); ok && slices.Contains(ops, b.Op) {
		return append(splitOp(info, b.X, ops...), splitOp(info, b.Y, ops...)...)
	}
	return []ast.Expr{e}
}

// unconvert strips parentheses and type conversions off e.
func unconvert(info *types.Info, e ast.Expr) ast.Expr {
	for {
		e = ast.Unparen(e)
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 || !info.Types[call.Fun].IsType() {
			return e
		}
		e = call.Args[0]
	}
}

// namesCost reports whether e mentions a named constant, a field or a call
// other than a conversion.
func namesCost(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			found = found || !info.Types[x.Fun].IsType()
		case *ast.Ident:
			switch obj := info.Uses[x].(type) {
			case *types.Const:
				found = true
			case *types.Var:
				found = found || obj.IsField()
			}
		}
		return !found
	})
	return found
}

// isConstZero reports whether the expression is the constant 0.
func isConstZero(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil && tv.Value.String() == "0"
}
