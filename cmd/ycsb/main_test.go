package main

import (
	"testing"

	"aquila/internal/clitest"
)

func TestCLI(t *testing.T) {
	clitest.Run(t, []clitest.Case{
		{Name: "lsm aquila both sinks", Stdout: "lsm-aquila.golden", Files: "lsm-aquila.files.golden",
			Args: []string{"-store", "lsm", "-engine", "aquila", "-workload", "C", "-threads", "2",
				"-records", "2000", "-ops", "300", "-trace", "t.json", "-metrics-json", "m.json"}},
		{Name: "kreon kmmap nvme", Stdout: "kreon-kmmap.golden", Files: "kreon-kmmap.files.golden",
			Args: []string{"-store", "kreon", "-engine", "kmmap", "-device", "nvme", "-workload", "A",
				"-dist", "zipfian", "-records", "2000", "-ops", "300", "-metrics-json", "m.json"}},
		{Name: "bare", Stdout: "bare.golden",
			Args: []string{"-engine", "direct", "-records", "2000", "-ops", "200"}},
		{Name: "unknown engine", Args: []string{"-engine", "spdk"}, Exit: 1, Stderr: "unknown-engine.stderr.golden"},
		{Name: "unknown store", Args: []string{"-store", "btree"}, Exit: 1, Stderr: "unknown-store.stderr.golden"},
		{Name: "unwritable metrics", Exit: 1, Stdout: "unwritable.golden", Stderr: "unwritable.stderr.golden",
			Args: []string{"-records", "2000", "-ops", "10", "-metrics-json", "nosuchdir/m.json"}},
	})
}
