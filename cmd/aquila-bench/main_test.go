package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// The CLI is tested as users meet it: the built binary, its exit status and
// its two output streams, against checked-in goldens.
func TestCLI(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "aquila-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name   string
		args   []string
		exit   int
		stdout string // golden file; "" means the stream must be empty
		stderr string
	}{
		{name: "list", args: []string{"-list"}, stdout: "list.golden"},
		{name: "unknown experiment", args: []string{"-exp", "table1,nosuch"}, exit: 2, stderr: "nosuch.stderr.golden"},
		{name: "csv", args: []string{"-exp", "table1,memcpy", "-format", "csv"}, stdout: "csv.golden"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			exit := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if exit != tc.exit {
				t.Errorf("exit status %d, want %d (stderr: %s)", exit, tc.exit, stderr.Bytes())
			}
			checkGolden(t, "stdout", tc.stdout, stdout.Bytes())
			checkGolden(t, "stderr", tc.stderr, stderr.Bytes())
		})
	}
}

func checkGolden(t *testing.T, stream, file string, got []byte) {
	t.Helper()
	if file == "" {
		if len(got) != 0 {
			t.Errorf("%s not empty:\n%s", stream, got)
		}
		return
	}
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from %s (re-run with -update if intended):\n--- got\n%s--- want\n%s", stream, path, got, want)
	}
}
