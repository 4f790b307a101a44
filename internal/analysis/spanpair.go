package analysis

import (
	"go/ast"
	"go/token"
	"sort"
)

// Spanpair enforces the obs-span discipline: a span begun with
// Proc.BeginSpan must be ended on every path out of the function, typically
// with `defer p.EndSpan()` registered immediately after the begin. A span
// left open corrupts the per-process span stack — every later span on that
// track nests under the leaked frame and the Chrome trace stops matching the
// golden.
//
// Since aqlint v2 the check is flow-aware: per function body (function
// literals are independent units), the dataflow solver tracks a net
// open-span counter per receiver expression along the CFG. BeginSpan
// increments, EndSpan decrements, and a `defer recv.EndSpan()` decrements at
// registration (defers run on every subsequent exit). At a function exit —
// returns, falling off the end, and panic exits alike, since unwinding
// through an open span corrupts the stack just the same — a receiver whose
// counter is positive on any incoming path leaks. Joins take the worst
// (largest) counter, so a leak on one branch is not masked by balance on
// another. Spans intentionally handed across function boundaries need an
// //aqlint:ignore spanpair annotation.
//
// Scope: the simulated packages (SimulatedPkg) — everything that runs on a
// Proc and so can open a span on its stack.
var Spanpair = &Analyzer{
	Name: "spanpair",
	Doc: "a span begun in a function must be ended on every return path " +
		"(defer recv.EndSpan() right after BeginSpan)",
	Run: runSpanpair,
}

func runSpanpair(pass *Pass) error {
	if !SimulatedPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		funcUnits(f, func(body *ast.BlockStmt) {
			checkSpanUnit(pass, body)
		})
	}
	return nil
}

// spanNet is the per-receiver dataflow value: the net number of spans still
// open (begins − ends − registered defers) and the position of the last
// BeginSpan, which anchors the finding (that is the line to fix, and the
// line an //aqlint:ignore rides on).
type spanNet struct {
	net       int
	lastBegin token.Pos
}

// spanNetClamp bounds the counter so unbalanced loops (begin without end in
// a loop body) reach a fixpoint instead of counting up forever.
const spanNetClamp = 32

// spanState maps receiver expression to its counter. nil = unreachable.
type spanState map[string]spanNet

// spanCall decodes a call into (receiver, method) if it is a
// BeginSpan/EndSpan method call.
func spanCall(call *ast.CallExpr) (string, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	name := sel.Sel.Name
	if name != "BeginSpan" && name != "EndSpan" {
		return "", "", false
	}
	return recvString(sel.X), name, true
}

func checkSpanUnit(pass *Pass, body *ast.BlockStmt) {
	cfg := BuildCFG(body, pass.TypesInfo)

	clamp := func(n int) int {
		if n > spanNetClamp {
			return spanNetClamp
		}
		if n < -spanNetClamp {
			return -spanNetClamp
		}
		return n
	}
	bump := func(s spanState, recv string, delta int, begin token.Pos) spanState {
		n := make(spanState, len(s)+1)
		for k, v := range s {
			n[k] = v
		}
		c := n[recv]
		c.net = clamp(c.net + delta)
		if begin != token.NoPos {
			c.lastBegin = begin
		}
		n[recv] = c
		return n
	}
	transfer := func(s spanState, atom ast.Node) spanState {
		if ds, ok := atom.(*ast.DeferStmt); ok {
			// The deferred call runs at exit, not here; registering it
			// guarantees one end on every later path.
			if recv, name, ok := spanCall(ds.Call); ok && name == "EndSpan" {
				s = bump(s, recv, -1, token.NoPos)
			}
			return s
		}
		walkSameFunc(atom, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if recv, name, ok := spanCall(call); ok {
				if name == "BeginSpan" {
					s = bump(s, recv, 1, call.Pos())
				} else {
					s = bump(s, recv, -1, token.NoPos)
				}
			}
			return true
		})
		return s
	}
	edge := func(s spanState, _ *Cond) spanState { return s }
	join := func(dst, src spanState) (spanState, bool) {
		if src == nil {
			return dst, false
		}
		if dst == nil {
			n := make(spanState, len(src))
			for k, v := range src {
				n[k] = v
			}
			return n, true
		}
		changed := false
		for k, sv := range src {
			dv, ok := dst[k]
			mv := dv
			// Worst path wins: the larger open count; on ties, the later
			// begin (closest to the leaking exit).
			if sv.net > mv.net || (sv.net == mv.net && sv.lastBegin > mv.lastBegin) {
				mv = sv
			}
			if !ok || mv != dv {
				if !changed {
					c := make(spanState, len(dst)+1)
					for k2, v2 := range dst {
						c[k2] = v2
					}
					dst = c
					changed = true
				}
				dst[k] = mv
			}
		}
		return dst, changed
	}

	in := solveForward(cfg, spanState{}, transfer, edge, join)
	merged, _ := join(nil, in[cfg.Exit.Index])
	merged, _ = join(merged, in[cfg.PanicExit.Index])

	recvs := make([]string, 0, len(merged))
	for recv := range merged {
		recvs = append(recvs, recv)
	}
	sort.Strings(recvs)
	for _, recv := range recvs {
		c := merged[recv]
		if c.net <= 0 {
			continue
		}
		r := recv
		if r == "" {
			r = "recv"
		}
		// One finding per unit keeps the noise down.
		pass.Reportf(c.lastBegin,
			"span begun with %s.BeginSpan may stay open on a return path; close it with defer %s.EndSpan()",
			r, r)
		break
	}
}
