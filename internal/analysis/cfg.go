package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the flow-aware half of aqlint's v2 engine: a deterministic
// intra-procedural control-flow graph over go/ast. Blocks are created in
// source order (stable block indices => stable dataflow iteration => stable
// findings), every expression of the function appears in exactly one atom,
// and edges out of branches carry a canonicalized condition label so the
// dataflow solver (dataflow.go) can discard facts on contradicted paths:
// the `if ferr == nil { WriteAt } ... if ferr == nil { Persist }` shape of
// the I/O engines pairs up without path-insensitive false positives.
//
// Function literals are independent analysis units (as everywhere in this
// package): the builder records a FuncLit inside an expression atom but
// never descends into its body.

// Cond is a canonicalized branch condition attached to a CFG edge: taking
// the edge means the condition's canonical form evaluated to Val. Key is
// always set and is the correlation handle for guard matching (`x != nil`
// and `!(x == nil)` canonicalize to the same Key with flipped Val).
type Cond struct {
	// Key is the canonical printed condition ("ferr == nil", "ok", ...).
	Key string
	// Val is the canonical condition's value on this edge.
	Val bool
	// BoolVar is the variable when the condition is a bare bool identifier.
	BoolVar types.Object
}

// negate returns the condition for the opposite edge.
func (c *Cond) negate() *Cond {
	if c == nil {
		return nil
	}
	n := *c
	n.Val = !c.Val
	return &n
}

// Edge is one control-flow successor; Cond is nil for unconditional flow.
type Edge struct {
	To   *Block
	Cond *Cond
}

// Block is a straight-line sequence of atoms. An atom is an ast.Node — a
// simple statement, a branch/loop/switch condition expression, a return
// statement, or a defer statement — and analyzers classify atoms with
// walkSameFunc, so nested function literals stay opaque.
type Block struct {
	Index int
	Atoms []ast.Node
	Succs []Edge
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry *Block
	// Exit collects every normal function exit: each return statement and
	// falling off the end of the body.
	Exit *Block
	// PanicExit collects explicit `panic(...)` statements: crash/SIGBUS
	// unwinding, not an acknowledged completion of the function.
	PanicExit *Block
	// Blocks in creation (source) order.
	Blocks []*Block

	guards map[ast.Node][]Cond
}

// Guards returns the canonical conditions of the if-branches syntactically
// enclosing the atom, outermost first. Facts generated at the atom carry
// them so the solver can drop the fact on a later edge that contradicts one
// (the correlated-guard pattern of the I/O write paths).
func (c *CFG) Guards(atom ast.Node) []Cond { return c.guards[atom] }

type loopFrame struct {
	label      string
	brk, cont  *Block // cont nil for switch/select frames
	isSwitchy  bool
	nextClause *Block // fallthrough target while building a clause
}

type cfgBuilder struct {
	c      *CFG
	info   *types.Info
	cur    *Block // nil after a terminating statement (unreachable code)
	gstack []Cond
	loops  []loopFrame
}

// BuildCFG constructs the CFG of one function body. info may be nil (tests);
// condition canonicalization then resolves no objects but keys still work.
func BuildCFG(body *ast.BlockStmt, info *types.Info) *CFG {
	b := &cfgBuilder{
		c:    &CFG{guards: make(map[ast.Node][]Cond)},
		info: info,
	}
	b.c.Entry = b.newBlock()
	b.c.Exit = b.newBlock()
	b.c.PanicExit = b.newBlock()
	b.cur = b.c.Entry
	b.stmtList(body.List)
	// Falling off the end of the body is the implicit final return.
	b.link(b.cur, b.c.Exit, nil)
	return b.c
}

func (b *cfgBuilder) newBlock() *Block {
	bl := &Block{Index: len(b.c.Blocks)}
	b.c.Blocks = append(b.c.Blocks, bl)
	return bl
}

func (b *cfgBuilder) link(from, to *Block, cond *Cond) {
	if from == nil {
		return
	}
	from.Succs = append(from.Succs, Edge{To: to, Cond: cond})
}

// atom appends n to the current block, recording the enclosing guard stack.
// Unreachable atoms (after return/panic/branch) land in a fresh dangling
// block so analyzers still see them without polluting reachable paths.
func (b *cfgBuilder) atom(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Atoms = append(b.cur.Atoms, n)
	if len(b.gstack) > 0 {
		b.c.guards[n] = append([]Cond(nil), b.gstack...)
	}
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(st.List)
	case *ast.IfStmt:
		b.ifStmt(st)
	case *ast.ForStmt:
		b.forStmt(st, "")
	case *ast.RangeStmt:
		b.rangeStmt(st, "")
	case *ast.SwitchStmt:
		b.switchStmt(st, "")
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(st, "")
	case *ast.SelectStmt:
		b.selectStmt(st)
	case *ast.LabeledStmt:
		b.labeledStmt(st)
	case *ast.ReturnStmt:
		b.atom(st)
		b.link(b.cur, b.c.Exit, nil)
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(st)
	case *ast.ExprStmt:
		b.atom(st)
		if isPanicCall(b.info, st.X) {
			b.link(b.cur, b.c.PanicExit, nil)
			b.cur = nil
		}
	default:
		// DeferStmt, AssignStmt, GoStmt, SendStmt, IncDecStmt, DeclStmt,
		// EmptyStmt... all straight-line atoms.
		b.atom(s)
	}
}

func (b *cfgBuilder) ifStmt(st *ast.IfStmt) {
	if st.Init != nil {
		b.atom(st.Init)
	}
	b.atom(st.Cond)
	condT := b.canonCond(st.Cond)
	head := b.cur
	after := b.newBlock()

	thenB := b.newBlock()
	b.link(head, thenB, condT)
	b.cur = thenB
	b.withGuard(condT, func() { b.stmtList(st.Body.List) })
	b.link(b.cur, after, nil)

	condF := condT.negate()
	if st.Else != nil {
		elseB := b.newBlock()
		b.link(head, elseB, condF)
		b.cur = elseB
		b.withGuard(condF, func() { b.stmt(st.Else) })
		b.link(b.cur, after, nil)
	} else {
		b.link(head, after, condF)
	}
	b.cur = after
}

// withGuard runs fn with c pushed on the syntactic guard stack.
func (b *cfgBuilder) withGuard(c *Cond, fn func()) {
	if c == nil {
		fn()
		return
	}
	b.gstack = append(b.gstack, *c)
	fn()
	b.gstack = b.gstack[:len(b.gstack)-1]
}

func (b *cfgBuilder) forStmt(st *ast.ForStmt, label string) {
	if st.Init != nil {
		b.atom(st.Init)
	}
	head := b.newBlock()
	b.link(b.cur, head, nil)
	after := b.newBlock()
	body := b.newBlock()

	b.cur = head
	var condT *Cond
	if st.Cond != nil {
		b.atom(st.Cond)
		condT = b.canonCond(st.Cond)
		b.link(b.cur, body, condT)
		b.link(b.cur, after, condT.negate())
	} else {
		b.link(b.cur, body, nil)
	}

	post := head
	if st.Post != nil {
		post = b.newBlock()
		b.cur = post
		b.atom(st.Post)
		b.link(b.cur, head, nil)
	}

	b.loops = append(b.loops, loopFrame{label: label, brk: after, cont: post})
	b.cur = body
	// The loop condition is NOT pushed as a guard: loop variables mutate
	// between iterations, so a fact generated in the body must survive the
	// eventual loop-exit edge (unlike an if, whose guard is re-evaluated on
	// the same values the gen site saw).
	b.stmtList(st.Body.List)
	b.link(b.cur, post, nil)
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(st *ast.RangeStmt, label string) {
	b.atom(st.X)
	head := b.newBlock()
	b.link(b.cur, head, nil)
	after := b.newBlock()
	body := b.newBlock()
	b.link(head, body, nil)
	b.link(head, after, nil)

	b.loops = append(b.loops, loopFrame{label: label, brk: after, cont: head})
	b.cur = body
	b.stmtList(st.Body.List)
	b.link(b.cur, head, nil)
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func (b *cfgBuilder) switchStmt(st *ast.SwitchStmt, label string) {
	if st.Init != nil {
		b.atom(st.Init)
	}
	if st.Tag != nil {
		b.atom(st.Tag)
	}
	b.clauses(st.Body, label, false)
}

func (b *cfgBuilder) typeSwitchStmt(st *ast.TypeSwitchStmt, label string) {
	if st.Init != nil {
		b.atom(st.Init)
	}
	b.atom(st.Assign)
	b.clauses(st.Body, label, true)
}

// clauses builds the case bodies of a (type) switch; a type switch's case
// lists are types, not expressions, and make no atoms.
func (b *cfgBuilder) clauses(body *ast.BlockStmt, label string, isType bool) {
	head := b.cur
	after := b.newBlock()
	hasDefault := false

	type built struct {
		start *Block
		cc    *ast.CaseClause
	}
	var cases []built
	for _, cs := range body.List {
		cc := cs.(*ast.CaseClause)
		blk := b.newBlock()
		cases = append(cases, built{start: blk, cc: cc})
		if cc.List == nil {
			hasDefault = true
		}
	}
	for i, bc := range cases {
		b.link(head, bc.start, nil)
		var next *Block
		if i+1 < len(cases) {
			next = cases[i+1].start
		}
		b.loops = append(b.loops, loopFrame{label: label, brk: after, isSwitchy: true, nextClause: next})
		b.cur = bc.start
		if !isType {
			for _, e := range bc.cc.List {
				b.atom(e)
			}
		}
		b.stmtList(bc.cc.Body)
		b.link(b.cur, after, nil)
		b.loops = b.loops[:len(b.loops)-1]
	}
	if !hasDefault {
		b.link(head, after, nil)
	}
	b.cur = after
}

func (b *cfgBuilder) selectStmt(st *ast.SelectStmt) {
	head := b.cur
	after := b.newBlock()
	for _, cs := range st.Body.List {
		cc := cs.(*ast.CommClause)
		blk := b.newBlock()
		b.link(head, blk, nil)
		b.loops = append(b.loops, loopFrame{brk: after, isSwitchy: true})
		b.cur = blk
		if cc.Comm != nil {
			b.atom(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.link(b.cur, after, nil)
		b.loops = b.loops[:len(b.loops)-1]
	}
	b.cur = after
}

func (b *cfgBuilder) labeledStmt(st *ast.LabeledStmt) {
	switch inner := st.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, st.Label.Name)
	case *ast.RangeStmt:
		b.rangeStmt(inner, st.Label.Name)
	case *ast.SwitchStmt:
		b.switchStmt(inner, st.Label.Name)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(inner, st.Label.Name)
	default:
		b.stmt(st.Stmt)
	}
}

func (b *cfgBuilder) branchStmt(st *ast.BranchStmt) {
	b.atom(st)
	label := ""
	if st.Label != nil {
		label = st.Label.Name
	}
	find := func(cont bool) *Block {
		for i := len(b.loops) - 1; i >= 0; i-- {
			f := &b.loops[i]
			if cont && f.isSwitchy {
				continue // continue skips switch frames
			}
			if label != "" && f.label != label {
				continue
			}
			if cont {
				return f.cont
			}
			return f.brk
		}
		return nil
	}
	switch st.Tok {
	case token.BREAK:
		if t := find(false); t != nil {
			b.link(b.cur, t, nil)
		}
	case token.CONTINUE:
		if t := find(true); t != nil {
			b.link(b.cur, t, nil)
		}
	case token.FALLTHROUGH:
		for i := len(b.loops) - 1; i >= 0; i-- {
			if b.loops[i].isSwitchy {
				if n := b.loops[i].nextClause; n != nil {
					b.link(b.cur, n, nil)
				}
				break
			}
		}
	case token.GOTO:
		// No goto in the analyzed tree; treat conservatively as an exit so
		// pending facts surface rather than vanish.
		b.link(b.cur, b.c.Exit, nil)
	}
	b.cur = nil
}

// canonCond canonicalizes a branch condition for edge labeling: `!x` flips
// polarity, `x != nil` becomes the `x == nil` key with flipped value, a bare
// bool identifier becomes a BoolVar test, and anything else is an opaque key
// (its printed form) usable only for guard correlation.
func (b *cfgBuilder) canonCond(e ast.Expr) *Cond {
	val := true
	e = ast.Unparen(e)
	for {
		u, ok := e.(*ast.UnaryExpr)
		if !ok || u.Op != token.NOT {
			break
		}
		val = !val
		e = ast.Unparen(u.X)
	}
	if be, ok := e.(*ast.BinaryExpr); ok && (be.Op == token.EQL || be.Op == token.NEQ) {
		x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
		if isNilIdent(y) || isNilIdent(x) {
			operand := x
			if isNilIdent(x) {
				operand = y
			}
			if be.Op == token.NEQ {
				val = !val
			}
			return &Cond{Key: types.ExprString(operand) + " == nil", Val: val}
		}
	}
	if id, ok := e.(*ast.Ident); ok {
		c := &Cond{Key: id.Name, Val: val}
		if b.info != nil {
			c.BoolVar = b.info.Uses[id]
		}
		return c
	}
	return &Cond{Key: types.ExprString(e), Val: val}
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// isPanicCall reports whether the expression is a call of the panic builtin.
func isPanicCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	if info == nil {
		return true
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}
