package analysis

import (
	"go/ast"
	"go/types"
)

// Persistpair is the static twin of the crash sweep (DESIGN.md §9): every
// device write staged with Store.WriteAt is volatile until its Persist
// durability handshake, so a write path that can reach a normal return —
// i.e. acknowledge completion to its caller — without a Persist on some CFG
// path silently loses acked data at the next crash. The crash sweep catches
// this dynamically when a workload happens to cut power between the two
// calls; persistpair proves the pairing on every path at `make lint` time.
//
// The check runs the must-pair dataflow solver over each function's CFG:
//
//   - gen: a Store.WriteAt call, or a call to a package-local function whose
//     summary says pending (unpersisted) writes escape from it;
//   - kill: a Store.Persist call (receiver-matched when both receivers
//     render), or a call to a package-local function that persists on every
//     path, or on every path a bool argument passed as true lets through
//     (persistSummaries);
//   - edges contradicting the write's enclosing guards drop the fact, so
//     `if ferr == nil { WriteAt } ... if ferr == nil { Persist }` pairs up.
//
// A function whose pending writes escape (e.g. core's flushFrame) is not
// itself a finding when the package also contains direct call sites: the
// obligation transfers to the callers, which the staging summary charges.
// Only escape points with no intra-package callers — interface-dispatched
// entry points — report at the WriteAt itself.
//
// Scope: the durability-handshake surface (PersistPairPkg) — the I/O
// engines, the host OS layers, and the SPDK driver.
var Persistpair = &Analyzer{
	Name: "persistpair",
	Doc: "a device write staged with Store.WriteAt must reach its Persist " +
		"durability handshake on every path to a normal return",
	Run: runPersistpair,
}

func runPersistpair(pass *Pass) error {
	if !PersistPairPkg(pass.Pkg.Path()) {
		return nil
	}
	g := buildCallGraph(pass)
	ps := summarizePersists(pass, g)
	staging := stagingSummaries(pass, g, ps)

	report := func(facts []pairFact) {
		for _, f := range facts {
			if f.Via != "" {
				pass.Reportf(f.Pos,
					"call to %s stages a device WriteAt whose data can reach a return without a Persist durability handshake",
					f.Via)
			} else {
				recv := f.Recv
				if recv == "" {
					recv = "store"
				}
				pass.Reportf(f.Pos,
					"%s.WriteAt is unpaired: the staged write can reach a return without a Persist durability handshake on some path",
					recv)
			}
		}
	}

	// Declared functions: escape points with intra-package callers hand the
	// obligation to those callers instead of reporting here.
	for _, n := range g.order {
		facts := persistExitFacts(pass, g, n.cfg, ps, staging)
		if len(facts) == 0 || n.callers > 0 {
			continue
		}
		report(facts)
	}
	// Function literals are leaf units: nothing calls them by name, so any
	// escaping pending write reports at its WriteAt.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				cfg := BuildCFG(lit.Body, pass.TypesInfo)
				report(persistExitFacts(pass, g, cfg, ps, staging))
			}
			return true
		})
	}
	return nil
}

// stagingSummaries computes, per function, whether a pending (unpersisted)
// device write can escape through its normal return: the function stages
// data its callers are responsible for persisting. Computed after (and with)
// the mustPersist fixpoint, so the gen set grows monotonically and the
// fixpoint terminates.
func stagingSummaries(pass *Pass, g *callGraph, ps persistSummaries) map[*types.Func]bool {
	return g.summarize(func(n *cgNode, cur map[*types.Func]bool) bool {
		return len(persistExitFacts(pass, g, n.cfg, ps, cur)) > 0
	})
}

// persistExitFacts runs the must-pair solver for one function unit and
// returns the staged writes that reach its normal exit unpersisted.
func persistExitFacts(pass *Pass, g *callGraph, cfg *CFG, ps persistSummaries, staging map[*types.Func]bool) []pairFact {
	info := pass.TypesInfo
	return solvePairs(pairProblem{
		cfg: cfg,
		gen: func(atom ast.Node) []pairFact {
			var fs []pairFact
			for _, op := range atomCalls(info, g, atom) {
				switch {
				case isStoreWriteAt(info, op.call):
					recv := ""
					if sel, ok := ast.Unparen(op.call.Fun).(*ast.SelectorExpr); ok {
						recv = recvString(sel.X)
					}
					fs = append(fs, pairFact{
						Pos: op.call.Pos(), Gen: atom, Recv: recv,
						Guards: cfg.Guards(atom),
					})
				case op.callee != nil && staging[op.callee]:
					fs = append(fs, pairFact{
						Pos: op.call.Pos(), Gen: atom, Via: op.callee.Name(),
						Guards: cfg.Guards(atom),
					})
				}
			}
			return fs
		},
		kill: func(atom ast.Node, f pairFact) bool {
			for _, op := range atomCalls(info, g, atom) {
				if isStorePersist(info, op.call) {
					recv := ""
					if sel, ok := ast.Unparen(op.call.Fun).(*ast.SelectorExpr); ok {
						recv = recvString(sel.X)
					}
					if f.Recv == "" || recv == "" || recv == f.Recv {
						return true
					}
				} else if ps.discharges(info, op) {
					return true
				}
			}
			return false
		},
	})
}
