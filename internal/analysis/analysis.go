// Package analysis is aqlint's static-analysis framework: a self-contained,
// dependency-free subset of golang.org/x/tools/go/analysis. The repo's hard
// determinism, cycle-accounting and span-pairing rules (DESIGN.md "Static
// invariants") are enforced by the analyzers in this package, driven either by
// cmd/aqlint over `go list` packages or by the analysistest harness over
// golden testdata packages.
//
// The Analyzer/Pass/Diagnostic surface mirrors x/tools so the analyzers can be
// ported to the upstream driver verbatim if the dependency ever becomes
// available; only the package loader (load.go) is bespoke: it shells out to
// `go list -export` and type-checks from source with the toolchain's own
// export data, which is exactly what the upstream unitchecker does under vet.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in findings and in aqlint's -only flag.
	// Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph rule statement (shown by `aqlint -list`).
	Doc string
	// Run executes the check over one package and reports findings through
	// pass.Report. A non-nil error aborts the whole run (driver failure,
	// not a finding).
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one finding. The driver applies //aqlint:sorted after
	// this call, so analyzers report unconditionally.
	Report func(Diagnostic)
}

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Finding is a diagnostic resolved against the file set, ready to print.
type Finding struct {
	Analyzer string
	// Pkg is the import path of the package the finding was reported in;
	// it is the primary sort key, so output order is independent of the
	// order packages were loaded in.
	Pkg     string
	Pos     token.Position
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}
