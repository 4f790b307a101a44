package main

import (
	"path/filepath"
	"testing"

	"aquila/internal/clitest"
	"aquila/internal/obs"
)

func TestCLI(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	// The candidate that drifted: fig8a's golden, one cycle slower.
	golden := filepath.Join(root, "BENCH_fig8a.json")
	rep, err := obs.ReadReportFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	rep.ElapsedCycles++
	drifted := filepath.Join(t.TempDir(), "BENCH_fig8a.json")
	if err := rep.WriteFile(drifted); err != nil {
		t.Fatal(err)
	}
	clitest.Run(t, []clitest.Case{
		{Name: "clean gate", Stdout: "clean.golden", Args: []string{"-goldens", root, "-dir", root}},
		{Name: "one cycle of drift", Exit: 1, Stdout: "drift.golden", Args: []string{golden, drifted}},
		{Name: "missing -dir", Exit: 2, Stderr: "missing-dir.stderr.golden", Args: []string{"-goldens", root}},
	})
}
