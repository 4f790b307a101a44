package analysis

import (
	"go/ast"
	"go/types"
)

// calleeFunc resolves the function or method a call expression invokes, or
// nil for calls through function values, built-ins, and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// recvString renders the receiver expression of a method-call selector
// ("p", "rt.Host.HV", ...) for matching paired calls on the same value. Only
// chains of identifiers and selections render; anything else returns "".
func recvString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := recvString(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	default:
		return ""
	}
}

// walkSameFunc walks n, calling fn for every node, but does not descend into
// nested function literals: their bodies are separate analysis units.
func walkSameFunc(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
	})
}
