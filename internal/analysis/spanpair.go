package analysis

import (
	"go/ast"
)

// Spanpair enforces the obs-span discipline: a span begun with
// Proc.BeginSpan must be ended on every path out of the function. A span
// left open corrupts the per-process span stack — every later span on that
// track nests under the leaked frame and the Chrome trace stops matching the
// golden.
//
// The rule is lexical, because every span in the tree has one of two shapes
// and neither leaves a path to reason about. In a statement list,
// `X.BeginSpan(…)` must be followed either by
//
//	defer X.EndSpan()
//
// as the very next statement, or by exactly one assignment or expression
// statement (the timed call) and then `X.EndSpan()`. A BeginSpan anywhere
// else — a branch, a return or a second statement inside the bracket, a defer
// further down, an EndSpan on another receiver, a span handed across a
// function boundary — is a finding at the BeginSpan, and there is no escape
// hatch: a span that needs more than one statement gets the defer form in a
// function of its own.
//
// Scope: the simulated packages (SimulatedPkg) — everything that runs on a
// Proc and so can open a span on its stack.
var Spanpair = &Analyzer{
	Name: "spanpair",
	Doc: "X.BeginSpan must be followed by `defer X.EndSpan()` as the next " +
		"statement, or by one simple statement and then X.EndSpan()",
	Run: runSpanpair,
}

func runSpanpair(pass *Pass) error {
	if !SimulatedPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		// Pre-order: a statement list is marked before the calls inside it
		// are visited.
		paired := make(map[*ast.CallExpr]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.BlockStmt:
				markPairedSpans(st.List, paired)
			case *ast.CaseClause:
				markPairedSpans(st.Body, paired)
			case *ast.CommClause:
				markPairedSpans(st.Body, paired)
			case *ast.CallExpr:
				recv, ok := spanCall(st, "BeginSpan")
				if !ok || paired[st] {
					return true
				}
				if recv == "" {
					recv = "recv"
				}
				pass.Reportf(st.Pos(),
					"span begun with %s.BeginSpan is not closed by the next statement: follow it with "+
						"defer %s.EndSpan(), or with one simple statement and then %s.EndSpan()",
					recv, recv, recv)
			}
			return true
		})
	}
	return nil
}

// markPairedSpans records the BeginSpan calls of one statement list that are
// closed in one of the two accepted shapes.
func markPairedSpans(list []ast.Stmt, paired map[*ast.CallExpr]bool) {
	for i, s := range list {
		begin := stmtCall(s)
		recv, ok := spanCall(begin, "BeginSpan")
		if !ok || recv == "" {
			continue
		}
		ends := func(call *ast.CallExpr) bool {
			r, ok := spanCall(call, "EndSpan")
			return ok && r == recv
		}
		if i+1 < len(list) {
			if ds, ok := list[i+1].(*ast.DeferStmt); ok && ends(ds.Call) {
				paired[begin] = true
				continue
			}
		}
		if i+2 < len(list) && isSimpleStmt(list[i+1]) && ends(stmtCall(list[i+2])) {
			paired[begin] = true
		}
	}
}

// stmtCall returns the call an expression statement consists of, or nil.
func stmtCall(s ast.Stmt) *ast.CallExpr {
	if es, ok := s.(*ast.ExprStmt); ok {
		call, _ := es.X.(*ast.CallExpr)
		return call
	}
	return nil
}

// isSimpleStmt reports whether s is an assignment or an expression statement:
// straight-line code with no way out of the bracket but a panic, which
// unwinds through the engine-owned span stack anyway.
func isSimpleStmt(s ast.Stmt) bool {
	switch s.(type) {
	case *ast.AssignStmt, *ast.ExprStmt:
		return true
	}
	return false
}

// spanCall decodes a call (nil: no call) into its receiver expression if it
// is a call of the named span method; the receiver renders "" when it is not
// a plain identifier/selector chain.
func spanCall(call *ast.CallExpr, method string) (string, bool) {
	if call == nil {
		return "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return "", false
	}
	return recvString(sel.X), true
}
