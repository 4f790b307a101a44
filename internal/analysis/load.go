package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs `go list -e -export -deps -json` over the patterns in dir and
// decodes the JSON stream.
func goList(dir string, patterns []string) ([]*listedPkg, error) {
	args := []string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Standard,Error",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, errb.String())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(&out)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list decode: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportLookup builds the import resolver every type-check shares: import
// paths resolve through the compiler export data `go list -export` produced,
// the same mechanism `go vet` uses. The importer records imported-object
// positions into fset, which must be the same file set the analyzed sources
// are parsed into (analyzers resolve both through one Pass.Fset).
func exportLookup(pkgs []*listedPkg, fset *token.FileSet) types.Importer {
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	})
}

// newInfo allocates the types.Info maps the analyzers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
	}
}

// parseDir parses the named files of one package directory, comments included
// (the suppression directives live there).
func parseDir(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for _, name := range sorted {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Load resolves the patterns (e.g. "./...") relative to dir, then parses and
// type-checks every matched non-test package from source. Directories named
// testdata are invisible to `go list`, so analyzer golden packages never
// reach the real run.
func Load(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exportLookup(listed, fset)
	var out []*Package
	for _, lp := range listed {
		if lp.DepOnly || lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("package %s: %s", lp.ImportPath, lp.Error.Err)
		}
		files, err := parseDir(fset, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		info := newInfo()
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", "amd64")}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", lp.ImportPath, err)
		}
		out = append(out, &Package{
			PkgPath: lp.ImportPath,
			Dir:     lp.Dir,
			Fset:    fset,
			Files:   files,
			Types:   tpkg,
			Info:    info,
		})
	}
	return out, nil
}

// LoadDir parses and type-checks one directory of Go files as the package
// pkgPath, resolving its imports through `go list -export` run in modDir.
// This is the analysistest loader: testdata packages are not go-list-visible,
// but their std imports are.
func LoadDir(modDir, dir, pkgPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir, names)
	if err != nil {
		return nil, err
	}
	// Resolve the union of the files' imports (std-only by construction of
	// the testdata packages).
	seen := map[string]bool{}
	var imports []string
	for _, f := range files {
		for _, im := range f.Imports {
			path := im.Path.Value
			path = path[1 : len(path)-1] // unquote
			if path != "unsafe" && !seen[path] {
				seen[path] = true
				imports = append(imports, path)
			}
		}
	}
	var imp types.Importer
	if len(imports) > 0 {
		listed, err := goList(modDir, imports)
		if err != nil {
			return nil, err
		}
		imp = exportLookup(listed, fset)
	}
	info := newInfo()
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", "amd64")}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", dir, err)
	}
	return &Package{
		PkgPath: pkgPath, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info,
	}, nil
}
