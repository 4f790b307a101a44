package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// TestSmoke runs all six workloads at 2% of their frozen size, once untraced
// and once traced, and holds what they emit to the checked-in BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec, err := loadSpecFile()
	if err != nil {
		t.Fatal(err)
	}
	if want := declaredSpec(); !reflect.DeepEqual(spec, want) {
		t.Fatalf("BENCHMARK.json differs from the declarations in spec.go; regenerate it with `go run ./bench -spec`\n file: %+v\n code: %+v", spec, want)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(spec.Workloads); n != 6 {
		t.Errorf("%d workloads declared, want 6", n)
	}
	if n := len(spec.EndToEnd); n > 16 {
		t.Errorf("%d end-to-end metrics declared, limit 16", n)
	}
	if n := len(spec.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics declared, limit 128", n)
	}
	declared := make(map[string]bool)
	hasSetup := false
	for _, m := range spec.EndToEnd {
		declared[m.Name] = true
		hasSetup = hasSetup || m.Name == "setup_s"
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		declared[m.Name] = true
	}
	if !hasSetup {
		t.Error("no setup_s among the end-to-end metrics")
	}
	if n := len(spec.EndToEnd) + len(spec.PerLayer); len(declared) != n {
		t.Errorf("%d distinct metric names for %d declarations", len(declared), n)
	}
	for name := range declared {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q does not match %v", name, nameRE)
		}
	}

	const scale = 0.02
	micro := microLoops(scale)
	for i := range workloads {
		w := &workloads[i]
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters (%d)", w.name, len(w.why))
		}
		cfg := runCfg{seed: 1, scale: scale}
		// The traced repetition is the second in-process run of the same
		// inputs: assemble fails the workload unless it reproduces every
		// simulated value of the untraced one.
		res := assemble(w, []repResult{runRep(w, cfg)}, runTraced(w, cfg), micro)
		for _, e := range res.Errors {
			t.Errorf("%s", e)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		emitted := make(map[string]bool)
		for name, v := range res.EndToEnd {
			emitted[name] = true
			if v.Value == 0 {
				t.Errorf("%s: end-to-end metric %s reads 0", w.name, name)
			}
		}
		for name := range res.PerLayer {
			emitted[name] = true
		}
		for name := range declared {
			if !emitted[name] {
				t.Errorf("%s: declared metric %s was not emitted", w.name, name)
			}
		}
		for name := range emitted {
			if !declared[name] {
				t.Errorf("%s: emitted metric %s is not declared", w.name, name)
			}
		}
	}
}

// loadSpecFile reads the checked-in BENCHMARK.json.
func loadSpecFile() (benchmarkJSON, error) {
	var doc benchmarkJSON
	root, err := repoRoot()
	if err != nil {
		return doc, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return doc, nil
}
