// Package clitest tests the command-line tools as users meet them: the built
// binary, its exit status, its two output streams and the files it writes,
// against goldens checked in under the command's testdata/ directory.
// Re-run a command's tests with -update to rewrite its goldens.
package clitest

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// Case is one invocation. Stdout, Stderr and Files name golden files under
// testdata/; "" means the stream must be empty, or that no file is checked.
type Case struct {
	Name string
	Args []string
	// Dir is the working directory, relative to the command's own; "" is a
	// fresh empty one. aqlint and aqtort -repro take paths relative to the
	// repo root and echo them, so their cases run there.
	Dir            string
	Exit           int
	Stdout, Stderr string
	// Files is the golden of "<sha256> <name>" lines, one per file the run
	// left in its working directory, in name order. The tools' artefacts are
	// deterministic per seed, so the digest pins their every byte.
	Files string
}

// Run builds the command in the current directory and runs every case as a
// subtest, each in a fresh empty working directory unless it names one. The
// command sees the directory's name as argv[0], so a flag package usage
// message is the same from run to run.
func Run(t *testing.T, cases []Case) {
	bin := filepath.Join(t.TempDir(), "cmd")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, tc.Args...)
			cmd.Args[0] = filepath.Base(wd)
			cmd.Dir = tc.Dir
			if cmd.Dir == "" {
				cmd.Dir = t.TempDir()
			}
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			exit := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if exit != tc.Exit {
				t.Errorf("exit status %d, want %d (stderr: %s)", exit, tc.Exit, stderr.Bytes())
			}
			checkGolden(t, "stdout", tc.Stdout, stdout.Bytes())
			checkGolden(t, "stderr", tc.Stderr, stderr.Bytes())
			if tc.Files != "" {
				checkGolden(t, "written files", tc.Files, digests(t, cmd.Dir))
			}
		})
	}
}

// digests lists dir's files with their SHA-256 (os.ReadDir sorts by name).
func digests(t *testing.T, dir string) []byte {
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%x %s\n", sha256.Sum256(data), e.Name())
	}
	return out.Bytes()
}

func checkGolden(t *testing.T, what, file string, got []byte) {
	t.Helper()
	if file == "" {
		if len(got) != 0 {
			t.Errorf("%s not empty:\n%s", what, got)
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
		t.Errorf("%s differs from %s (re-run with -update if intended):\n--- got\n%s--- want\n%s", what, path, got, want)
	}
}
