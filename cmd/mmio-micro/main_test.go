package main

import (
	"path/filepath"
	"testing"

	"aquila/internal/clitest"
)

func TestCLI(t *testing.T) {
	plan, err := filepath.Abs("../../testdata/crashplans/at-cycle.json")
	if err != nil {
		t.Fatal(err)
	}
	clitest.Run(t, []clitest.Case{
		{Name: "aquila all sinks", Stdout: "aquila.golden", Files: "aquila.files.golden",
			Args: []string{"-mode", "aquila", "-threads", "4", "-cache", "16", "-dataset", "64", "-ops", "500",
				"-trace", "t.json", "-metrics-json", "m.json",
				"-profile-dir", ".", "-profile-top", "5"}},
		{Name: "mmap private nvme", Stdout: "mmap.golden", Files: "mmap.files.golden",
			Args: []string{"-mode", "mmap", "-device", "nvme", "-threads", "2", "-shared=false",
				"-cache", "8", "-dataset", "32", "-ops", "300", "-metrics-json", "m.json"}},
		{Name: "bare", Stdout: "bare.golden",
			Args: []string{"-cache", "8", "-dataset", "32", "-ops", "200"}},
		{Name: "crash plan", Stdout: "crash.golden", Files: "crash.files.golden",
			Args: []string{"-threads", "2", "-cache", "8", "-dataset", "32", "-ops", "2000",
				"-crash-plan", plan, "-metrics-json", "m.json"}},
		{Name: "unknown mode", Args: []string{"-mode", "dax"}, Exit: 1, Stderr: "unknown-mode.stderr.golden"},
		{Name: "unwritable trace", Exit: 1, Stdout: "unwritable.golden", Stderr: "unwritable.stderr.golden",
			Args: []string{"-cache", "8", "-dataset", "32", "-ops", "10", "-trace", "nosuchdir/t.json"}},
	})
}
