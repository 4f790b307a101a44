package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
)

// Intra-package call graph plus the two function summaries persistpair
// needs. Cross-package calls are deliberately opaque: in this tree the
// WriteAt/Persist handshake never spans a package boundary (DESIGN.md §8),
// so package-local summaries keep the engine simple, fast, and free of
// whole-program load order issues.

type cgNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	cfg  *CFG
	// callers counts direct intra-package call sites of fn (calls through
	// interfaces do not resolve to fn and are not counted).
	callers int
}

type callGraph struct {
	nodes map[*types.Func]*cgNode
	// order lists nodes by declaration position: fixpoint iteration and
	// reporting stay deterministic.
	order []*cgNode
}

// buildCallGraph collects every function declaration with a body in the
// package, builds its CFG, and counts direct call sites.
func buildCallGraph(pass *Pass) *callGraph {
	g := &callGraph{nodes: make(map[*types.Func]*cgNode)}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &cgNode{fn: fn, decl: fd, cfg: BuildCFG(fd.Body, pass.TypesInfo)}
			g.nodes[fn] = n
			g.order = append(g.order, n)
		}
	}
	sort.Slice(g.order, func(i, j int) bool {
		return g.order[i].decl.Pos() < g.order[j].decl.Pos()
	})
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeFunc(pass.TypesInfo, call); callee != nil {
				if node, ok := g.nodes[callee]; ok {
					node.callers++
				}
			}
			return true
		})
	}
	return g
}

// atomOp classifies what an atom does with respect to a pairing discipline:
// the direct generating/discharging calls it contains, plus calls to
// package-local functions (resolved through the graph).
type atomOp struct {
	call   *ast.CallExpr
	callee *types.Func // non-nil when statically resolved
}

// atomCalls returns the calls inside an atom (outside nested literals) in
// source order.
func atomCalls(info *types.Info, g *callGraph, atom ast.Node) []atomOp {
	var ops []atomOp
	walkSameFunc(atom, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			ops = append(ops, atomOp{call: call, callee: calleeFunc(info, call)})
		}
		return true
	})
	return ops
}

// summarize computes a boolean per-function summary as a monotone fixpoint
// over the call graph: prop(node, cur) may consult cur for callees; the
// fixpoint starts at `false` everywhere and only flips summaries to `true`,
// so iteration terminates. Deterministic: nodes are visited in declaration
// order until a full pass changes nothing.
func (g *callGraph) summarize(prop func(n *cgNode, cur map[*types.Func]bool) bool) map[*types.Func]bool {
	cur := make(map[*types.Func]bool, len(g.order))
	for {
		changed := false
		for _, n := range g.order {
			if cur[n.fn] {
				continue
			}
			if prop(n, cur) {
				cur[n.fn] = true
				changed = true
			}
		}
		if !changed {
			return cur
		}
	}
}

// persistSummaries says which package-local calls are a durability handshake.
// must[f]: every path through f from entry to a normal return passes a
// Store.Persist (directly or through another such function). guard[f] = i:
// the same holds on every path f's i-th parameter, a bool, lets through when
// true — host.blockIO(…, write), the one timed path reads and writes share —
// so a call is a handshake only where it passes the constant true there.
// Functions whose normal exit is unreachable are never marked (conservative:
// calling them discharges nothing).
type persistSummaries struct {
	must  map[*types.Func]bool
	guard map[*types.Func]int
}

// discharges reports whether the call op is a durability handshake.
func (ps persistSummaries) discharges(info *types.Info, op atomOp) bool {
	if isStorePersist(info, op.call) {
		return true
	}
	if op.callee == nil {
		return false
	}
	if ps.must[op.callee] {
		return true
	}
	i, ok := ps.guard[op.callee]
	if !ok || i >= len(op.call.Args) {
		return false
	}
	v := info.Types[op.call.Args[i]].Value
	return v != nil && v.Kind() == constant.Bool && constant.BoolVal(v)
}

func summarizePersists(pass *Pass, g *callGraph) persistSummaries {
	ps := persistSummaries{guard: make(map[*types.Func]int)}
	ps.must = g.summarize(func(n *cgNode, cur map[*types.Func]bool) bool {
		return persistsOnEveryPath(pass, g, n, persistSummaries{must: cur}, nil)
	})
	for _, n := range g.order {
		if ps.must[n.fn] {
			continue
		}
		params := n.fn.Type().(*types.Signature).Params()
		for i := 0; i < params.Len(); i++ {
			if b, ok := params.At(i).Type().(*types.Basic); !ok || b.Kind() != types.Bool {
				continue
			}
			if persistsOnEveryPath(pass, g, n, ps, params.At(i)) {
				ps.guard[n.fn] = i
				break
			}
		}
	}
	return ps
}

// persistsOnEveryPath runs the must-analysis for one function: does every
// path to its normal return pass a handshake known to ps? With assume set,
// the edges only taken when that bool variable is false are left out.
func persistsOnEveryPath(pass *Pass, g *callGraph, n *cgNode, ps persistSummaries, assume types.Object) bool {
	transfer := func(done bool, atom ast.Node) bool {
		if done {
			return true
		}
		for _, op := range atomCalls(pass.TypesInfo, g, atom) {
			if ps.discharges(pass.TypesInfo, op) {
				return true
			}
		}
		return false
	}
	edge := func(done bool, c *Cond) bool {
		return done || (assume != nil && c != nil && c.BoolVar == assume && !c.Val)
	}
	// Must-analysis: a path that has not persisted dominates the join.
	join := func(dst, src bool) (bool, bool) { return dst && src, dst && !src }
	in := solveMust(n.cfg, transfer, edge, join)
	reached, done := in[n.cfg.Exit.Index][0], in[n.cfg.Exit.Index][1]
	return reached && done
}

// solveMust is solveForward specialized to a bool lattice with an explicit
// reachability bit (nil-state cannot be expressed with a plain bool).
// Returns per-block [reached, value].
func solveMust(
	c *CFG,
	transfer func(bool, ast.Node) bool,
	edge func(bool, *Cond) bool,
	join func(dst, src bool) (merged, changed bool),
) [][2]bool {
	type st struct {
		reached bool
		val     bool
	}
	out := solveForward(c, st{reached: true},
		func(s st, atom ast.Node) st {
			s.val = transfer(s.val, atom)
			return s
		},
		func(s st, cond *Cond) st {
			s.val = edge(s.val, cond)
			return s
		},
		func(dst, src st) (st, bool) {
			if !src.reached {
				return dst, false
			}
			if !dst.reached {
				return src, true
			}
			merged, changed := join(dst.val, src.val)
			dst.val = merged
			return dst, changed
		},
	)
	res := make([][2]bool, len(out))
	for i, s := range out {
		res[i] = [2]bool{s.reached, s.val}
	}
	return res
}

// isStorePersist reports whether the call is the durability handshake: a
// Persist method call on the device store type.
func isStorePersist(info *types.Info, call *ast.CallExpr) bool {
	return isStoreMethod(info, call, "Persist")
}

// isStoreWriteAt reports whether the call stages data into the device
// store's volatile tier.
func isStoreWriteAt(info *types.Info, call *ast.CallExpr) bool {
	return isStoreMethod(info, call, "WriteAt")
}

// isStoreMethod matches a method call on the simulated device store by
// receiver type name, the same bare-name idiom the cyclecost analyzer uses:
// internal/analysis must not import the packages it checks, and there is a
// single `Store` type in the tree (internal/sim/device).
func isStoreMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return recvTypeName(sig.Recv().Type()) == "Store"
}
