package main

import (
	"testing"

	"aquila/internal/clitest"
)

func TestCLI(t *testing.T) {
	clitest.Run(t, []clitest.Case{
		{Name: "bank", Stdout: "bank.golden", Args: []string{"-bank", "2", "-v"}},
		{Name: "prove unsafe", Stdout: "prove.golden", Files: "prove.files.golden",
			Args: []string{"-prove-unsafe", "-repro-dir", "."}},
		{Name: "repro replay", Dir: "../..", Exit: 1, Stdout: "repro.golden",
			Args: []string{"-repro", "internal/torture/testdata/repros/unsafe_msync.json"}},
		{Name: "repro with a slot its file lacks", Dir: "../..", Exit: 2, Stderr: "bad-slot.stderr.golden",
			Args: []string{"-repro", "cmd/aqtort/testdata/slot-out-of-range.json"}},
		{Name: "repro with a crash past the run", Dir: "../..", Exit: 2, Stderr: "impossible-crash.stderr.golden",
			Args: []string{"-repro", "cmd/aqtort/testdata/impossible-crash.json"}},
		{Name: "unknown flag", Exit: 2, Stderr: "unknown-flag.stderr.golden", Args: []string{"-nosuch"}},
	})
}
