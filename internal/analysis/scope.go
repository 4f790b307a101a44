package analysis

import "strings"

// simulatedPrefixes are the package trees whose code runs on simulated
// Procs: the machine, the Aquila runtime, the Linux baseline, the SPDK stack,
// the stores and the graph engine. One list, because "runs on a Proc" is one
// property with three consequences: wall-clock time, global randomness and
// map-order effects there corrupt the goldens and the same-seed guarantee
// (detrand, maporder); a leaked span corrupts the per-Proc span stack
// (spanpair); and every frame unwinds through the crash panic-sentinel
// (crashclean — minus the engine, which owns the sentinel).
var simulatedPrefixes = []string{
	"aquila/internal/sim",
	"aquila/internal/core",
	"aquila/internal/host",
	"aquila/internal/spdk",
	"aquila/internal/kvs",
	"aquila/internal/graph",
}

// hasPkgPrefix reports whether path is prefix itself or a package below it.
func hasPkgPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// SimulatedPkg reports whether the import path belongs to a package that
// runs on simulated Procs; detrand, maporder and spanpair are scoped by it.
func SimulatedPkg(path string) bool {
	for _, p := range simulatedPrefixes {
		if hasPkgPrefix(path, p) {
			return true
		}
	}
	return false
}

// CycleAccountedPkg reports whether the import path is part of the
// transition-cost surface: the simulated CPU/runtime layers where every raw
// clock advance must name a calibrated cost constant. The engine package
// itself is excluded — it defines the advance primitives.
func CycleAccountedPkg(path string) bool {
	if hasPkgPrefix(path, "aquila/internal/sim/engine") {
		return false
	}
	return hasPkgPrefix(path, "aquila/internal/sim") ||
		hasPkgPrefix(path, "aquila/internal/core")
}

// ErrDropPkg reports whether the import path is held to the typed-I/O-error
// propagation rule (PR 3's end-to-end error guarantees live in core).
func ErrDropPkg(path string) bool {
	return hasPkgPrefix(path, "aquila/internal/core")
}

// CrashUnwindPkg reports whether the import path is held to the crashclean
// discipline (no recover, no deferred user-space cleanup): every simulated
// package except the engine itself, which owns the sentinel and performs the
// one sanctioned recover.
func CrashUnwindPkg(path string) bool {
	return SimulatedPkg(path) && !hasPkgPrefix(path, "aquila/internal/sim/engine")
}
