// Command aqlint runs Aquila's custom static-analysis suite over the repo:
// the determinism, cycle-accounting, span-pairing, error-propagation,
// durability-pairing and crash-unwind invariants the goldens and the crash
// sweep depend on (see DESIGN.md "Static invariants").
//
// Usage:
//
//	aqlint ./...            # analyze packages (exit 1 on findings)
//	aqlint -list            # describe the analyzers
//	aqlint -only detrand ./internal/core/...
//	aqlint -json ./...      # machine-readable findings (CI artifact)
//
// The one escape hatch is maporder's: `//aqlint:sorted -- reason` above a
// range over a map, with the reason mandatory. Suppressed counts are reported
// so escapes stay visible in CI logs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"aquila/internal/analysis"
)

// jsonFinding is the machine-readable shape of one finding (-json mode).
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	Package  string `json:"package"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Findings   []jsonFinding `json:"findings"`
	Suppressed int           `json:"suppressed"`
	Packages   int           `json:"packages"`
}

func main() {
	var (
		list     = flag.Bool("list", false, "describe the analyzers and exit")
		only     = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		jsonMode = flag.Bool("json", false, "emit findings as one JSON document on stdout")
	)
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(n)] = true
		}
		var sel []*analysis.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				sel = append(sel, a)
			}
		}
		if len(sel) == 0 {
			fmt.Fprintf(os.Stderr, "aqlint: no analyzer matches -only %q\n", *only)
			os.Exit(2)
		}
		analyzers = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "aqlint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aqlint: %v\n", err)
		os.Exit(2)
	}
	if len(pkgs) == 0 {
		// A silent empty match would make a broken loader look like a clean
		// lint run in CI.
		fmt.Fprintf(os.Stderr, "aqlint: no packages match %v\n", patterns)
		os.Exit(2)
	}
	res, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aqlint: %v\n", err)
		os.Exit(2)
	}
	if *jsonMode {
		rep := jsonReport{
			Findings:   make([]jsonFinding, 0, len(res.Findings)),
			Suppressed: res.Suppressed,
			Packages:   len(pkgs),
		}
		for _, f := range res.Findings {
			rep.Findings = append(rep.Findings, jsonFinding{
				Analyzer: f.Analyzer,
				Package:  f.Pkg,
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "aqlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range res.Findings {
			fmt.Println(f)
		}
	}
	if res.Suppressed > 0 {
		fmt.Fprintf(os.Stderr, "aqlint: %d finding(s) suppressed by //aqlint directives\n", res.Suppressed)
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "aqlint: %d finding(s) in %d package(s)\n", len(res.Findings), len(pkgs))
		os.Exit(1)
	}
}
