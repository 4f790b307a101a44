package analysis

import (
	"go/ast"
	"go/token"
	"sort"
)

// Generic forward dataflow over the CFGs of cfg.go, plus the must-pair fact
// layer persistpair runs on it.
//
// The solver is a plain worklist fixpoint. Determinism matters more than
// speed here (findings feed golden tests and the CI gate): blocks are
// visited in index order via a sorted worklist, and all reported fact sets
// are ordered by generation position.

// solveForward runs a forward fixpoint: each block's input state is the
// join of its predecessors' outputs (filtered per edge), the block output
// is transfer folded over its atoms. States must be treated as immutable by
// transfer (return a fresh value when changing anything). A nil state means
// "unreachable"; join(nil, s) must equal a copy of s.
//
// Returns the input state of every block, indexed by Block.Index.
func solveForward[S any](
	c *CFG,
	entry S,
	transfer func(S, ast.Node) S,
	edge func(S, *Cond) S,
	join func(S, S) (S, bool),
) []S {
	in := make([]S, len(c.Blocks))
	inSet := make([]bool, len(c.Blocks))
	in[c.Entry.Index] = entry
	inSet[c.Entry.Index] = true

	queued := make([]bool, len(c.Blocks))
	var work []int
	push := func(i int) {
		if !queued[i] {
			queued[i] = true
			work = append(work, i)
		}
	}
	push(c.Entry.Index)
	for len(work) > 0 {
		sort.Ints(work)
		i := work[0]
		work = work[1:]
		queued[i] = false
		if !inSet[i] {
			continue
		}
		b := c.Blocks[i]
		st := in[i]
		for _, a := range b.Atoms {
			st = transfer(st, a)
		}
		for _, e := range b.Succs {
			ns := st
			if e.Cond != nil {
				ns = edge(st, e.Cond)
			}
			j := e.To.Index
			if !inSet[j] {
				var zero S
				merged, _ := join(zero, ns)
				in[j] = merged
				inSet[j] = true
				push(j)
			} else if merged, changed := join(in[j], ns); changed {
				in[j] = merged
				push(j)
			}
		}
	}
	return in
}

// pairFact is one outstanding obligation: a device write staged that has not
// yet met its Persist on the current path.
type pairFact struct {
	// Pos anchors the finding: the position of the generating call.
	Pos token.Pos
	// Gen is the atom that generated the fact (self-kill exclusion).
	Gen ast.Node
	// Recv is the printed receiver of the generating call ("" when the fact
	// is receiver-agnostic, e.g. carried through a callee summary).
	Recv string
	// Via names an intermediate callee when the fact entered through a
	// call-graph summary rather than a direct operation.
	Via string
	// Guards are the enclosing if-conditions at the generation site; an
	// edge contradicting one kills the fact (correlated-guard paths).
	Guards []Cond
}

// pairState maps generation position to fact. nil means unreachable; an
// empty non-nil map means reachable with no outstanding obligations.
type pairState map[token.Pos]pairFact

func clonePairs(s pairState) pairState {
	n := make(pairState, len(s)+1)
	for k, v := range s {
		n[k] = v
	}
	return n
}

// joinPairs unions two states (may-analysis: an obligation outstanding on
// any path into the block is outstanding in the block).
func joinPairs(dst, src pairState) (pairState, bool) {
	if src == nil {
		return dst, false
	}
	if dst == nil {
		return clonePairs(src), true
	}
	changed := false
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			if !changed {
				dst = clonePairs(dst)
				changed = true
			}
			dst[k] = v
		}
	}
	return dst, changed
}

// pairProblem configures a must-pair run for one function unit.
type pairProblem struct {
	cfg *CFG
	// gen returns the facts the atom generates (usually zero or one).
	gen func(atom ast.Node) []pairFact
	// kill reports whether the atom discharges the fact.
	kill func(atom ast.Node, f pairFact) bool
}

// solvePairs runs the must-pair analysis and returns the facts that reach
// the function's exit, ordered by generation position.
func solvePairs(p pairProblem) []pairFact {
	transfer := func(s pairState, atom ast.Node) pairState {
		var out pairState = s
		mutated := false
		mutable := func() pairState {
			if !mutated {
				out = clonePairs(out)
				mutated = true
			}
			return out
		}
		for k, f := range s {
			if atom != f.Gen && p.kill(atom, f) {
				delete(mutable(), k)
			}
		}
		for _, f := range p.gen(atom) {
			mutable()[f.Pos] = f
		}
		return out
	}
	edge := func(s pairState, c *Cond) pairState {
		var out pairState = s
		mutated := false
		for k, f := range s {
			if !edgeKills(f, c) {
				continue
			}
			if !mutated {
				out = clonePairs(out)
				mutated = true
			}
			delete(out, k)
		}
		return out
	}
	in := solveForward(p.cfg, pairState{}, transfer, edge, joinPairs)

	atExit := in[p.cfg.Exit.Index]
	out := make([]pairFact, 0, len(atExit))
	for _, f := range atExit {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// edgeKills reports whether taking an edge labeled c discharges fact f: the
// edge contradicts one of the fact's generation-site guards, so the path is
// infeasible for this fact.
func edgeKills(f pairFact, c *Cond) bool {
	for _, g := range f.Guards {
		if g.Key == c.Key && g.Val != c.Val {
			return true
		}
	}
	return false
}
