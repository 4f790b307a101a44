package analysis

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var updateCensus = flag.Bool("update", false, "rewrite testdata/census.golden")

// tableSuffixes name the structs whose exported fields a caller sets to
// configure the simulator.
var tableSuffixes = []string{"Params", "Options", "Config", "Costs"}

// flagDefiners maps each flag package definer to the argument index of the
// flag's name.
var flagDefiners = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0,
	"Uint": 0, "Uint64": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "UintVar": 1, "Uint64Var": 1, "TextVar": 1, "Var": 1,
}

// TestSettableCensus lists every value a caller can set to change what the
// simulator does, and holds the list to testdata/census.golden:
//
//   - pkg.Type.Field for each exported field of an exported struct named
//     *Params, *Options, *Config or *Costs;
//   - pkg.Type.Field for each exported field of any other exported struct whose
//     type is such a struct (a per-world copy of a table);
//   - pkg.Type.Field for each exported field of an exported struct in the
//     aquila package or a simulated one (SimulatedPkg) whose type is a func
//     or a named func type: a hook a caller installs to replace a policy;
//   - pkg -name for each flag a command under cmd/ defines.
//
// The tree is parsed, not type-checked; _test.go files and the bench and
// testdata directories are skipped. A PR that adds or removes a knob shows
// it as a line in the golden's diff (go test ./internal/analysis -run
// Census -update rewrites it).
func TestSettableCensus(t *testing.T) {
	root := filepath.Join("..", "..")
	type file struct {
		pkg string
		f   *ast.File
	}
	var files []file
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if d.Name() == "testdata" || rel == "bench" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{path.Join("aquila", path.Dir(rel)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	funcTypes := map[string]bool{}
	for _, f := range files {
		for name := range namedFuncTypes(f.f) {
			funcTypes[f.pkg+"."+name] = true
		}
	}
	var lines []string
	for _, f := range files {
		lines = append(lines, censusFields(f.pkg, f.f)...)
		if f.pkg == "aquila" || SimulatedPkg(f.pkg) {
			lines = append(lines, censusHooks(f.pkg, f.f, funcTypes)...)
		}
		if strings.HasPrefix(f.pkg, "aquila/cmd/") {
			lines = append(lines, censusFlags(f.pkg, f.f)...)
		}
	}
	slices.Sort(lines)
	got := strings.Join(slices.Compact(lines), "\n") + "\n"

	golden := filepath.Join("testdata", "census.golden")
	if *updateCensus {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("settable census differs from %s (rerun with -update and review the diff):\n%s",
			golden, lineDiff(string(want), got))
	}
}

// censusFields lists the settable struct fields one file declares.
func censusFields(pkg string, f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !ts.Name.IsExported() {
				continue
			}
			table := isTableName(ts.Name.Name)
			for _, fld := range st.Fields.List {
				if !table && !isTableName(typeName(fld.Type)) {
					continue
				}
				names := fld.Names
				if len(names) == 0 { // embedded: the field is named by its type
					names = []*ast.Ident{ast.NewIdent(typeName(fld.Type))}
				}
				for _, n := range names {
					if n.IsExported() {
						out = append(out, pkg+"."+ts.Name.Name+"."+n.Name)
					}
				}
			}
		}
	}
	return out
}

// namedFuncTypes is the set of func types one file declares.
func namedFuncTypes(f *ast.File) map[string]bool {
	out := map[string]bool{}
	for _, decl := range f.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
			for _, spec := range gd.Specs {
				if ts := spec.(*ast.TypeSpec); isFuncType(ts.Type) {
					out[ts.Name.Name] = true
				}
			}
		}
	}
	return out
}

// censusHooks lists the exported func-typed fields of the exported structs
// one file declares. funcTypes holds every named func type as pkg.Name.
func censusHooks(pkg string, f *ast.File, funcTypes map[string]bool) []string {
	imports := map[string]string{} // local name -> import path
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}
	isHook := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			return funcTypes[pkg+"."+e.Name]
		case *ast.SelectorExpr:
			x, ok := e.X.(*ast.Ident)
			return ok && funcTypes[imports[x.Name]+"."+e.Sel.Name]
		}
		return isFuncType(e)
	}
	var out []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !ts.Name.IsExported() {
				continue
			}
			for _, fld := range st.Fields.List {
				if !isHook(fld.Type) {
					continue
				}
				for _, n := range fld.Names {
					if n.IsExported() {
						out = append(out, pkg+"."+ts.Name.Name+"."+n.Name)
					}
				}
			}
		}
	}
	return out
}

func isFuncType(e ast.Expr) bool {
	_, ok := e.(*ast.FuncType)
	return ok
}

// censusFlags lists the command-line flags one file defines.
func censusFlags(pkg string, f *ast.File) []string {
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
			return true
		}
		i, ok := flagDefiners[sel.Sel.Name]
		if !ok || i >= len(call.Args) {
			return true
		}
		if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, _ := strconv.Unquote(lit.Value)
			out = append(out, pkg+" -"+name)
		}
		return true
	})
	return out
}

// typeName is the bare name of a field's type: Params for core.Params or
// *core.Params, "" for anything that is not a named type.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

func isTableName(name string) bool {
	if !ast.IsExported(name) {
		return false
	}
	for _, s := range tableSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// lineDiff reports the lines only one of two sorted lists holds.
func lineDiff(want, got string) string {
	w := strings.Split(strings.TrimSpace(want), "\n")
	g := strings.Split(strings.TrimSpace(got), "\n")
	var b strings.Builder
	for _, l := range w {
		if !slices.Contains(g, l) {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range g {
		if !slices.Contains(w, l) {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}

// TestCensusHooksResolvesNamedFuncTypes checks the three shapes a hook's
// type takes: a func literal type, a func type of the same package and one
// imported from another.
func TestCensusHooksResolvesNamedFuncTypes(t *testing.T) {
	src := `package core
import eng "aquila/internal/sim/engine"
type Policy func(int) int
type Runtime struct {
	Lit    func() bool
	Local  Policy
	Remote eng.Hook
	Plain  eng.Proc
	hidden Policy
}
type runtime struct{ Local Policy }
`
	f, err := parser.ParseFile(token.NewFileSet(), "core.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	funcTypes := map[string]bool{"aquila/internal/sim/engine.Hook": true}
	for name := range namedFuncTypes(f) {
		funcTypes["aquila/internal/core."+name] = true
	}
	got := censusHooks("aquila/internal/core", f, funcTypes)
	want := []string{"aquila/internal/core.Runtime.Lit", "aquila/internal/core.Runtime.Local", "aquila/internal/core.Runtime.Remote"}
	if !slices.Equal(got, want) {
		t.Errorf("censusHooks = %q, want %q", got, want)
	}
}
