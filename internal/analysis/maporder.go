package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Maporder flags `range` over a map in deterministic packages when the loop
// body is order-sensitive: Go randomizes map iteration order per range, so
// any effect that depends on visit order (appending to a slice that feeds the
// engine, calling into code that advances clocks, emits spans/metrics or
// issues I/O, overwriting outer state) makes two identical runs diverge.
//
// Order-insensitive bodies pass without annotation: commutative accumulation
// (x++, x += v), writes keyed by the iteration variable (out[k] = v), locals
// declared inside the loop, delete on the ranged map, and pure builtins.
// Everything else needs either iteration over detutil.SortedKeys or an
// //aqlint:sorted escape hatch with a justification.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc: "flag order-sensitive range over maps in deterministic packages; " +
		"iterate detutil.SortedKeys(m) or annotate //aqlint:sorted -- reason",
	Run: runMaporder,
}

// maporderPureBuiltins never observe iteration order.
var maporderPureBuiltins = map[string]bool{
	"len": true, "cap": true, "delete": true, "min": true, "max": true,
	"make": true, "new": true, "real": true, "imag": true, "complex": true,
}

// commutativeAssignOps accumulate independently of visit order.
var commutativeAssignOps = map[token.Token]bool{
	token.ADD_ASSIGN: true, // +=
	token.SUB_ASSIGN: true, // -=
	token.MUL_ASSIGN: true, // *=
	token.OR_ASSIGN:  true, // |=
	token.AND_ASSIGN: true, // &=
	token.XOR_ASSIGN: true, // ^=
}

func runMaporder(pass *Pass) error {
	if !SimulatedPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if reason := orderSensitive(pass, rng); reason != "" {
				pass.Reportf(rng.Pos(),
					"map iteration order leaks into simulated state (%s); "+
						"iterate detutil.SortedKeys(m) or annotate //aqlint:sorted -- reason",
					reason)
			}
			return true
		})
	}
	return nil
}

// orderSensitive scans the loop body and returns a description of the first
// order-sensitive effect, or "" when the body is provably commutative.
func orderSensitive(pass *Pass, rng *ast.RangeStmt) string {
	info := pass.TypesInfo
	keys := rangeVarObjs(info, rng)
	inBody := func(obj types.Object) bool {
		return obj != nil && rng.Body.Pos() <= obj.Pos() && obj.Pos() < rng.Body.End()
	}
	var reason string
	walkSameFunc(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch st := n.(type) {
		case *ast.SendStmt:
			reason = "channel send inside the loop"
		case *ast.IncDecStmt:
			// x++/x-- commute.
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE || commutativeAssignOps[st.Tok] {
				return true
			}
			if st.Tok != token.ASSIGN {
				reason = "non-commutative compound assignment"
				return false
			}
			// `keys = append(keys, k)` deserves the append diagnostic, not
			// the generic last-writer-wins one.
			if len(st.Lhs) == 1 && len(st.Rhs) == 1 {
				if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok && isAppend(info, call) {
					if inBody(baseObj(info, st.Lhs[0])) {
						return true
					}
					reason = "append builds an ordered slice from unordered keys"
					return false
				}
			}
			for _, lhs := range st.Lhs {
				if !orderFreeLValue(info, lhs, keys, inBody) {
					reason = "assignment to outer state is last-writer-wins"
					return false
				}
			}
		case *ast.CallExpr:
			if conversionOrPure(info, st) {
				return true
			}
			if isAppend(info, st) {
				if target := appendTargetObj(info, st); inBody(target) {
					return true
				}
				reason = "append builds an ordered slice from unordered keys"
				return false
			}
			reason = "call may advance clocks, emit spans/metrics, or issue I/O"
			return false
		}
		return true
	})
	return reason
}

// rangeVarObjs returns the objects of the range key/value variables.
func rangeVarObjs(info *types.Info, rng *ast.RangeStmt) []types.Object {
	var objs []types.Object
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				objs = append(objs, obj)
			} else if obj := info.Uses[id]; obj != nil {
				objs = append(objs, obj) // `for k = range m` reuse
			}
		}
	}
	return objs
}

// orderFreeLValue reports whether assigning to lhs cannot observe iteration
// order: blank, a variable declared inside the loop body, a map index, or an
// index keyed by a range variable (each iteration owns its slot).
func orderFreeLValue(info *types.Info, lhs ast.Expr, keys []types.Object, inBody func(types.Object) bool) bool {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return true
		}
		return inBody(baseObj(info, x))
	case *ast.IndexExpr:
		if _, isMap := typeUnder(info, x.X).(*types.Map); isMap {
			return true
		}
		if mentionsAny(info, x.Index, keys) {
			return true
		}
		return inBody(baseObj(info, x.X))
	case *ast.SelectorExpr:
		// Field writes on the ranged map's values (pg.dirty = false) touch a
		// per-key object; field writes on outer state are last-writer-wins.
		if mentionsAny(info, x.X, keys) {
			return true
		}
		return inBody(baseObj(info, x.X))
	case *ast.StarExpr:
		return mentionsAny(info, x.X, keys) || inBody(baseObj(info, x.X))
	default:
		return false
	}
}

// baseObj resolves the root identifier's object of a selector/index chain.
func baseObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// mentionsAny reports whether e references any of the given objects.
func mentionsAny(info *types.Info, e ast.Expr, objs []types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := info.ObjectOf(id)
			for _, o := range objs {
				if obj == o {
					found = true
					return false
				}
			}
		}
		return !found
	})
	return found
}

func typeUnder(info *types.Info, e ast.Expr) types.Type {
	t := info.TypeOf(e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// conversionOrPure reports whether the call is a type conversion or a pure
// builtin.
func conversionOrPure(info *types.Info, call *ast.CallExpr) bool {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
			return maporderPureBuiltins[id.Name]
		}
	}
	return false
}

func isAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}

// appendTargetObj returns the object append grows, when it is a plain
// variable.
func appendTargetObj(info *types.Info, call *ast.CallExpr) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	return baseObj(info, call.Args[0])
}
