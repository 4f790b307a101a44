package main

import (
	"testing"

	"aquila/internal/clitest"
)

// The loader hides testdata/ from patterns, so what each analyzer reports is
// pinned by internal/analysis' own golden packages; these cases pin the tool
// around them, over one small real package, from the repo root (aqlint
// resolves patterns with `go list` in its working directory).
func TestCLI(t *testing.T) {
	const pkg = "./internal/sim/device/..."
	clitest.Run(t, []clitest.Case{
		{Name: "clean package", Dir: "../..", Stderr: "clean.stderr.golden", Args: []string{pkg}},
		{Name: "json", Dir: "../..", Stdout: "json.golden", Stderr: "clean.stderr.golden", Args: []string{"-json", pkg}},
		{Name: "unknown flag", Dir: "../..", Exit: 2, Stderr: "unknown-flag.stderr.golden", Args: []string{"-nosuch"}},
		{Name: "unknown pattern", Dir: "../..", Exit: 2, Stderr: "unknown-pattern.stderr.golden", Args: []string{"./nosuch/..."}},
	})
}
