package graph

import "math/rand"

// RMATConfig parameterizes the Chakrabarti et al. R-MAT generator used in
// §6.2 (the paper: 100 M vertices, directed edges = 10x vertices).
type RMATConfig struct {
	// Vertices is rounded up to a power of two internally.
	Vertices uint32
	// EdgeFactor is edges-per-vertex (paper: 10).
	EdgeFactor int
	// Seed makes generation deterministic.
	Seed int64
}

// The standard R-MAT quadrant probabilities; D = 1-rmatA-rmatB-rmatC.
const rmatA, rmatB, rmatC = 0.57, 0.19, 0.19

// RMAT generates directed edges (u, v) per the recursive matrix model.
// Self-loops and duplicates are kept, as Ligra's rMatGraph does before
// symmetrization.
func RMAT(cfg RMATConfig) [][2]uint32 {
	if cfg.EdgeFactor == 0 {
		cfg.EdgeFactor = 10
	}
	levels := 0
	for 1<<levels < int(cfg.Vertices) {
		levels++
	}
	m := int(cfg.Vertices) * cfg.EdgeFactor
	rng := rand.New(rand.NewSource(cfg.Seed))
	edges := make([][2]uint32, 0, m)
	ab := rmatA + rmatB
	abc := ab + rmatC
	for len(edges) < m {
		var u, v uint32
		for l := 0; l < levels; l++ {
			// The quadrants in draw order are a (no bit), b (v), c (u) and
			// d (both): u is set past a+b, and v in every other quadrant
			// from b on, the parity of the three thresholds r passes. A
			// branch here mispredicts on almost every level.
			r := rng.Float64()
			pastB := bit(r >= ab)
			u |= pastB << l
			v |= (bit(r >= rmatA) ^ pastB ^ bit(r >= abc)) << l
		}
		if u < cfg.Vertices && v < cfg.Vertices {
			edges = append(edges, [2]uint32{u, v})
		}
	}
	return edges
}

// bit is 1 for true and 0 for false; the compiler turns it into a flag set,
// not a branch.
func bit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Symmetrize returns the union of edges and their reverses (Ligra's
// symmetric graphs, which BFS direction-switching needs).
func Symmetrize(edges [][2]uint32) [][2]uint32 {
	out := make([][2]uint32, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e, [2]uint32{e[1], e[0]})
	}
	return out
}
