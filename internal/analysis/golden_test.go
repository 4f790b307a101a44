package analysis

import (
	"path/filepath"
	"regexp"
	"testing"
)

// wantRe extracts `// want "regexp"` expectations from golden sources.
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// goldenCase binds one analyzer to its testdata package. The pkgPath is
// chosen to land inside the analyzer's scope (testdata directories are
// invisible to go list, so the impersonation is harmless).
type goldenCase struct {
	analyzer   *Analyzer
	dir        string
	pkgPath    string
	suppressed int // expected count of findings silenced by //aqlint:sorted
}

func TestAnalyzerGoldens(t *testing.T) {
	cases := []goldenCase{
		{Detrand, "detrand", "aquila/internal/sim/clockuser", 0},
		{Maporder, "maporder", "aquila/internal/core/maps", 3},
		{Cyclecost, "cyclecost", "aquila/internal/core/cycles", 0},
		// The host kernel and its hypervisor charge cycles too.
		{Cyclecost, "cyclecost", "aquila/internal/host/cycles", 0},
		{Spanpair, "spanpair", "aquila/internal/core/spans", 0},
		{Errdrop, "errdrop", "aquila/internal/core/eio", 0},
		{Crashclean, "crashclean", "aquila/internal/sim/world", 0},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg, err := LoadDir(".", filepath.Join("testdata", tc.dir), tc.pkgPath)
			if err != nil {
				t.Fatalf("load golden: %v", err)
			}
			res, err := Run([]*Package{pkg}, []*Analyzer{tc.analyzer})
			if err != nil {
				t.Fatalf("run %s: %v", tc.analyzer.Name, err)
			}
			checkWants(t, pkg, res.Findings)
			if res.Suppressed != tc.suppressed {
				t.Errorf("suppressed = %d, want %d", res.Suppressed, tc.suppressed)
			}
		})
	}
}

// TestScopeGating re-runs each scoped analyzer over its own golden under an
// out-of-scope import path: every finding must vanish.
func TestScopeGating(t *testing.T) {
	cases := []goldenCase{
		// The harness drives the worlds from the host side; it runs on no Proc.
		{Detrand, "detrand", "aquila/internal/harness/clockuser", 0},
		{Maporder, "maporder", "aquila/cmd/maps", 0},
		{Cyclecost, "cyclecost", "aquila/internal/sim/engine/cycles", 0},
		{Spanpair, "spanpair", "aquila/cmd/spans", 0},
		{Errdrop, "errdrop", "aquila/internal/kvs/eio", 0},
		// The engine owns the sentinel and the one sanctioned recover.
		{Crashclean, "crashclean", "aquila/internal/sim/engine/unwind", 0},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg, err := LoadDir(".", filepath.Join("testdata", tc.dir), tc.pkgPath)
			if err != nil {
				t.Fatalf("load golden: %v", err)
			}
			res, err := Run([]*Package{pkg}, []*Analyzer{tc.analyzer})
			if err != nil {
				t.Fatalf("run %s: %v", tc.analyzer.Name, err)
			}
			if len(res.Findings) != 0 || res.Suppressed != 0 {
				t.Errorf("out-of-scope package produced %d finding(s), %d suppressed",
					len(res.Findings), res.Suppressed)
			}
		})
	}
}

// want is one expectation: a message pattern anchored to a file line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// collectWants scans the golden package's comments for `// want` markers.
func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &want{
					file: pos.Filename,
					line: pos.Line,
					re:   regexp.MustCompile(m[1]),
				})
			}
		}
	}
	return wants
}

// checkWants matches findings against expectations one-to-one.
func checkWants(t *testing.T, pkg *Package, findings []Finding) {
	t.Helper()
	wants := collectWants(t, pkg)
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// TestParseDirective: one verb, and the reason is what comes after " -- ".
func TestParseDirective(t *testing.T) {
	cases := []struct {
		text, reason string
		ok           bool
	}{
		{"//aqlint:sorted -- sums commute", "sums commute", true},
		{"// aqlint:sorted --   padded  ", "padded", true},
		{"//aqlint:sorted", "", true},
		{"//aqlint:sorted --", "", true},
		{"//aqlint:sorted because I say so", "", true},
		{"//aqlint:sortedish -- x", "", false},
		{"//aqlint:other spanpair -- x", "", false},
		{"// sorted -- x", "", false},
	}
	for _, tc := range cases {
		reason, ok := parseDirective(tc.text)
		if reason != tc.reason || ok != tc.ok {
			t.Errorf("parseDirective(%q) = %q, %v; want %q, %v", tc.text, reason, ok, tc.reason, tc.ok)
		}
	}
}
