package analysis

import (
	"go/ast"
	"go/types"
)

// Crashclean protects the crash-unwinding protocol (DESIGN.md §9): a
// simulated crash unwinds every Proc with a private panic sentinel, and the
// whole durability model depends on user code neither absorbing that
// sentinel nor running cleanup while it unwinds — a deferred unlock or
// waitgroup-Done that fires during crash unwinding mutates simulated state
// that the "power cut" must leave exactly as it was.
//
// Two rules, over the simulated-thread tree (CrashUnwindPkg), both
// flow-insensitive:
//
//  1. recover: banned. No simulated package calls recover() — the engine,
//     outside this scope, performs the one sanctioned recover — so there is
//     no pattern to tell apart from a swallowed sentinel: any recover() call
//     reports.
//
//  2. defer: deferred calls (or deferred literals containing calls) whose
//     method name is user-space cleanup — Unlock, Done, Close, Persist, ... —
//     report unconditionally: defers run during crash unwinding.
//     `defer p.EndSpan()` is exempt: the span stack is engine-owned and
//     crash-tolerant.
var Crashclean = &Analyzer{
	Name: "crashclean",
	Doc: "code on simulated threads must not absorb the crash panic-sentinel " +
		"with recover nor register deferred user-space cleanup that would run " +
		"during crash unwinding",
	Run: runCrashclean,
}

// crashCleanupCalls are the method names treated as user-space cleanup: all
// mutate simulated state (locks, waitgroups, condvars, handles, durability)
// in ways a crash must not observe.
var crashCleanupCalls = map[string]bool{
	"Unlock": true, "RUnlock": true, "Done": true, "Signal": true,
	"Broadcast": true, "Close": true, "Msync": true, "Fsync": true,
	"Flush": true, "Persist": true, "Release": true, "SettleAll": true,
}

func runCrashclean(pass *Pass) error {
	if !CrashUnwindPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		checkDeferredCleanup(pass, f)
		checkRecoverBan(pass, f)
	}
	return nil
}

// checkDeferredCleanup reports every deferred user-space cleanup call.
func checkDeferredCleanup(pass *Pass, f *ast.File) {
	report := func(pos ast.Node, name string) {
		pass.Reportf(pos.Pos(),
			"deferred %s would run during crash unwinding: move the cleanup "+
				"before the returns so a crash leaves the state untouched", name)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(ds.Call.Fun).(type) {
		case *ast.SelectorExpr:
			if crashCleanupCalls[fun.Sel.Name] {
				report(ds, fun.Sel.Name+"()")
			}
		case *ast.FuncLit:
			// A deferred literal is cleanup if it calls cleanup; literals
			// that only mutate fields (pin counts) are crash-indifferent
			// bookkeeping and pass.
			walkSameFunc(fun.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
					crashCleanupCalls[sel.Sel.Name] {
					report(ds, sel.Sel.Name+"() inside a deferred func")
					return false
				}
				return true
			})
		}
		return true
	})
}

// checkRecoverBan reports every call of the recover builtin.
func checkRecoverBan(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
			if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin {
				pass.Reportf(call.Pos(),
					"recover() on a simulated thread can absorb the crash panic-sentinel: "+
						"only the engine recovers")
			}
		}
		return true
	})
}
