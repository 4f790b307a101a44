package main

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// hostProfile is the Go CPU profile of the traced repetitions; stop also
// writes the heap profile. With no artefact directory it is nil and does
// nothing.
type hostProfile struct {
	dir string
	cpu *os.File
}

func startHostProfile(dir string) (*hostProfile, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &hostProfile{dir: dir, cpu: f}, nil
}

func (h *hostProfile) stop() error {
	if h == nil {
		return nil
	}
	pprof.StopCPUProfile()
	if err := h.cpu.Close(); err != nil {
		return err
	}
	runtime.GC() // up-to-date heap statistics
	return writeTo(filepath.Join(h.dir, "heap.pprof"), pprof.WriteHeapProfile)
}

// writeArtefacts writes one workload's traced repetition: the Chrome trace
// (the program's spans plus the benchmark's boundary spans, simulated clock),
// the profiler's folded stacks, and the kept boundary spans with both clocks.
func writeArtefacts(dir, workload string, tr *tracedResult) error {
	if dir == "" {
		return nil
	}
	tr.rec.addTo(tr.tracer)
	if err := writeTo(filepath.Join(dir, "trace_"+workload+".json"), tr.tracer.WriteChromeTrace); err != nil {
		return err
	}
	if err := writeTo(filepath.Join(dir, "PROF_"+workload+".folded"), tr.prof.WriteFolded); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "spans_"+workload+".json"), tr.rec.kept)
}

// writeTo creates path and streams write into it.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
