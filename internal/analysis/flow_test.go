package analysis

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Tests of the analyzers against the REAL tree: the fixed violations stay
// fixed, and re-introducing one is caught.

const repoRoot = "../.."

// realPkgFiles returns the non-test Go file names of a real package directory
// (the file set `aqlint ./...` analyzes).
func realPkgFiles(t *testing.T, srcDir string) []string {
	t.Helper()
	ents, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatalf("read %s: %v", srcDir, err)
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	return names
}

// loadRealPkg copies a real package into a temp dir — applying mutate to
// each file body on the way, nil for verbatim — and type-checks it under
// its real import path.
func loadRealPkg(t *testing.T, rel, pkgPath string, mutate func(name string, src []byte) []byte) *Package {
	t.Helper()
	srcDir := filepath.Join(repoRoot, rel)
	tmp := t.TempDir()
	for _, name := range realPkgFiles(t, srcDir) {
		src, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if mutate != nil {
			src = mutate(name, src)
		}
		if err := os.WriteFile(filepath.Join(tmp, name), src, 0o644); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
	}
	pkg, err := LoadDir(repoRoot, tmp, pkgPath)
	if err != nil {
		t.Fatalf("load %s: %v", pkgPath, err)
	}
	return pkg
}

// runOne runs a single analyzer over one package.
func runOne(t *testing.T, pkg *Package, a *Analyzer) *RunResult {
	t.Helper()
	res, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	return res
}

// TestRealTreeClean pins the violations fixed so far: the graph workers
// release their waitgroup inline instead of by defer (crashclean), every span
// in core closes by adjacency (spanpair), and the Aquila runtime, the Linux
// baseline and the SPDK stack — on simulated Procs all — act in no
// map's iteration order and read no wall clock or global randomness
// (maporder, detrand), and the host's hypervisor charges named costs
// (cyclecost). suppressed is the number of reasoned //aqlint:sorted
// loops a package is allowed: a new one has to be declared here, and
// DESIGN.md §8 carries the census. On the pre-fix trees the graph case fails with three
// deferred-Done findings, the host/maporder case with seven and the
// host/cyclecost case with three (hv.go's VMCall and IPI literals).
func TestRealTreeClean(t *testing.T) {
	cases := []struct {
		rel, pkgPath string
		analyzer     *Analyzer
		suppressed   int
	}{
		{"internal/graph", "aquila/internal/graph", Crashclean, 0},
		{"internal/core", "aquila/internal/core", Spanpair, 0},
		// Audits, test counters and host-side snapshots over rt.files.
		{"internal/core", "aquila/internal/core", Maporder, 4},
		// CheckInvariants' walk of FS.files.
		{"internal/host", "aquila/internal/host", Maporder, 1},
		{"internal/host", "aquila/internal/host", Detrand, 0},
		{"internal/host", "aquila/internal/host", Cyclecost, 0},
		{"internal/spdk", "aquila/internal/spdk", Maporder, 0},
		{"internal/spdk", "aquila/internal/spdk", Detrand, 0},
	}
	for _, tc := range cases {
		t.Run(tc.rel+"/"+tc.analyzer.Name, func(t *testing.T) {
			pkg := loadRealPkg(t, tc.rel, tc.pkgPath, nil)
			res := runOne(t, pkg, tc.analyzer)
			for _, f := range res.Findings {
				t.Errorf("unexpected finding: %s", f)
			}
			if res.Suppressed != tc.suppressed {
				t.Errorf("suppressed = %d, want %d (a directive hiding a %s finding must be declared)",
					res.Suppressed, tc.suppressed, tc.analyzer.Name)
			}
		})
	}
}

// TestSpanBracketMutationCaught: an early return slipped between BeginSpan
// and EndSpan in core's readRun — the refactoring slip a one-statement bracket
// invites — is a spanpair finding at that BeginSpan.
func TestSpanBracketMutationCaught(t *testing.T) {
	pkg := loadRealPkg(t, "internal/core", "aquila/internal/core", func(name string, src []byte) []byte {
		if name != "runtime.go" {
			return src
		}
		const call = "_, err := rt.ioRun(p, ioRead, f, pageIdx, frames)\n"
		out := bytes.Replace(src, []byte(call),
			[]byte(call+"if err != nil { return newIOFault(\"read\", f.name, pageIdx, err) }\n"), 1)
		if bytes.Equal(out, src) {
			t.Fatal("could not insert the early return into readRun")
		}
		return out
	})
	res := runOne(t, pkg, Spanpair)
	if len(res.Findings) != 1 || !strings.Contains(res.Findings[0].Message, "p.BeginSpan") {
		t.Fatalf("early return inside readRun's span bracket: findings %v, want one at its BeginSpan", res.Findings)
	}
}

// TestEveryAnnotationHidesALoop blanks every //aqlint:sorted line of a real
// package and expects one maporder finding per directive, on the line below
// it: none is stale, and deleting any one of them — the six counting loops'
// included — puts its loop back on the list.
func TestEveryAnnotationHidesALoop(t *testing.T) {
	for _, pc := range []struct{ rel, pkgPath string }{
		{"internal/core", "aquila/internal/core"},
		{"internal/host", "aquila/internal/host"},
		{"internal/sim/device", "aquila/internal/sim/device"},
	} {
		want := map[string]bool{} // "file:line" of the loop under each directive
		pkg := loadRealPkg(t, pc.rel, pc.pkgPath, func(name string, src []byte) []byte {
			lines := bytes.Split(src, []byte("\n"))
			for i, l := range lines {
				if bytes.HasPrefix(bytes.TrimSpace(l), []byte("//aqlint:sorted")) {
					lines[i] = nil
					want[fmt.Sprintf("%s:%d", name, i+2)] = true
				}
			}
			return bytes.Join(lines, []byte("\n"))
		})
		res := runOne(t, pkg, Maporder)
		if res.Suppressed != 0 {
			t.Errorf("%s: %d finding(s) still suppressed with every directive blanked", pc.rel, res.Suppressed)
		}
		for _, f := range res.Findings {
			key := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
			if !want[key] {
				t.Errorf("%s: finding at %s sits under no directive: %s", pc.rel, key, f)
			}
			delete(want, key)
		}
		for key := range want {
			t.Errorf("%s: the directive above %s hides no map range", pc.rel, key)
		}
	}
}

// TestGraphDeferRegression re-introduces the bug this PR fixed — a deferred
// waitgroup release on a simulated worker — and asserts crashclean reports
// it. Together with TestRealTreeClean this pins the fix in both directions.
func TestGraphDeferRegression(t *testing.T) {
	pkg := loadRealPkg(t, "internal/graph", "aquila/internal/graph", func(name string, src []byte) []byte {
		if name != "algorithms.go" {
			return src
		}
		out := bytes.Replace(src,
			[]byte("fn(wp, lo, hi)\n"),
			[]byte("defer wg.Done(wp)\nfn(wp, lo, hi)\n"), 1)
		if bytes.Equal(out, src) {
			t.Fatal("could not re-introduce the deferred Done")
		}
		return out
	})
	res := runOne(t, pkg, Crashclean)
	found := false
	for _, f := range res.Findings {
		if strings.Contains(f.Message, "deferred Done()") {
			found = true
		}
	}
	if !found {
		t.Fatalf("re-introduced deferred Done not reported; findings: %v", res.Findings)
	}
}

// TestRunOrderDeterminism shuffles the package input order and asserts the
// findings come back identical: Run's cross-package sort (package path,
// file, offset, analyzer) must make output independent of load order.
func TestRunOrderDeterminism(t *testing.T) {
	load := func(dir, pkgPath string) *Package {
		pkg, err := LoadDir(".", filepath.Join("testdata", dir), pkgPath)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		return pkg
	}
	pkgs := []*Package{
		load("detrand", "aquila/internal/sim/clockuser"),
		load("maporder", "aquila/internal/core/maps"),
		load("crashclean", "aquila/internal/sim/world"),
		load("spanpair", "aquila/internal/core/spans"),
	}
	base, err := Run(pkgs, All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(base.Findings) == 0 {
		t.Fatal("expected findings from the golden packages")
	}
	perms := [][]int{
		{3, 2, 1, 0},
		{2, 0, 3, 1},
		{1, 3, 0, 2},
	}
	for _, perm := range perms {
		shuffled := make([]*Package, len(pkgs))
		for i, j := range perm {
			shuffled[i] = pkgs[j]
		}
		res, err := Run(shuffled, All())
		if err != nil {
			t.Fatalf("run perm %v: %v", perm, err)
		}
		if !reflect.DeepEqual(res.Findings, base.Findings) {
			t.Errorf("perm %v changed the output:\nbase: %v\ngot:  %v",
				perm, base.Findings, res.Findings)
		}
		if res.Suppressed != base.Suppressed {
			t.Errorf("perm %v changed suppressed: %d != %d", perm, res.Suppressed, base.Suppressed)
		}
	}
}
