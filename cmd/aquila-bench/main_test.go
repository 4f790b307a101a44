package main

import (
	"testing"

	"aquila/internal/clitest"
)

func TestCLI(t *testing.T) {
	clitest.Run(t, []clitest.Case{
		{Name: "list", Args: []string{"-list"}, Stdout: "list.golden"},
		{Name: "unknown experiment", Args: []string{"-exp", "table1,nosuch"}, Exit: 2, Stderr: "nosuch.stderr.golden"},
		{Name: "csv", Args: []string{"-exp", "table1,memcpy", "-format", "csv"}, Stdout: "csv.golden"},
	})
}
