package graph

import (
	"fmt"
	"math"

	"aquila/internal/sim/engine"
)

// BCResult reports one betweenness-centrality run.
type BCResult struct {
	Rounds        int
	ElapsedCycles uint64
	// ScoresOff is the heap offset of the float64 dependency scores.
	ScoresOff uint64
}

// RunBC computes single-source betweenness-centrality contributions from
// `src` with Brandes' algorithm, Ligra-style: a forward BFS phase recording
// per-level frontiers and shortest-path counts, then a backward dependency
// accumulation sweep. All per-vertex state (path counts, dependencies,
// scores) lives in the heap, so a mapped heap exercises the mmio path for
// both the read-heavy forward phase and the write-heavy backward phase.
// The graph must be symmetric.
func RunBC(e *engine.Engine, g *Graph, src uint32, threads int) BCResult {
	if threads < 1 {
		threads = 1
	}
	var res BCResult
	mainCPU := e.NumCPUs() - 1
	e.Spawn(mainCPU, "bc-main", func(p *engine.Proc) {
		start := p.Now()
		n := g.N
		sigma := g.H.Alloc(uint64(n) * 8)  // shortest-path counts (float64)
		delta := g.H.Alloc(uint64(n) * 8)  // dependencies
		scores := g.H.Alloc(uint64(n) * 8) // output
		res.ScoresOff = scores
		zero := make([]byte, 8*1024)
		for _, region := range []uint64{sigma, delta, scores} {
			for off := uint64(0); off < uint64(n)*8; off += uint64(len(zero)) {
				end := off + uint64(len(zero))
				if end > uint64(n)*8 {
					end = uint64(n) * 8
				}
				g.H.Store(p, region+off, zero[:end-off])
			}
		}
		StoreU64(p, g.H, sigma+uint64(src)*8, math.Float64bits(1))

		level := make([]int32, n) // transient state (Ligra keeps in DRAM)
		for i := range level {
			level[i] = -1
		}
		level[src] = 0
		frontier := []uint32{src}
		var levels [][]uint32
		// acc accumulates per-round contributions in transient memory:
		// `acc[v] += x` is a plain Go statement with no simulated yield
		// inside, so concurrent workers cannot lose updates; the totals
		// are committed to the heap once per round.
		acc := make([]float64, n)
		// Forward phase: BFS levels with path counting.
		for len(frontier) > 0 {
			res.Rounds++
			levels = append(levels, frontier)
			depth := int32(len(levels))
			next := make([][]uint32, threads)
			parallelFor(e, p, fmt.Sprintf("bc-fwd-%d", res.Rounds),
				uint32(len(frontier)), threads,
				func(wp *engine.Proc, lo, hi uint32) {
					tid := int(lo) * threads / max(len(frontier), 1)
					if tid >= threads {
						tid = threads - 1
					}
					var scratch []uint32
					for _, u := range frontier[lo:hi] {
						su := math.Float64frombits(LoadU64(wp, g.H, sigma+uint64(u)*8))
						nbrs := g.Neighbors(wp, u, scratch)
						scratch = nbrs
						for _, v := range nbrs {
							wp.AdvanceUser(10)
							if level[v] == -1 {
								level[v] = depth
								next[tid] = append(next[tid], v)
							}
							if level[v] == depth {
								acc[v] += su // yield-free accumulate
							}
						}
					}
				})
			frontier = nil
			for _, l := range next {
				frontier = append(frontier, l...)
			}
			// Commit this round's path counts to the heap.
			for _, v := range frontier {
				StoreU64(p, g.H, sigma+uint64(v)*8, math.Float64bits(acc[v]))
				acc[v] = 0
			}
		}
		// Backward phase: dependency accumulation, deepest level first,
		// with the same yield-free transient accumulation.
		for d := len(levels) - 1; d >= 1; d-- {
			verts := levels[d]
			parallelFor(e, p, fmt.Sprintf("bc-bwd-%d", d),
				uint32(len(verts)), threads,
				func(wp *engine.Proc, lo, hi uint32) {
					var scratch []uint32
					for _, v := range verts[lo:hi] {
						sv := math.Float64frombits(LoadU64(wp, g.H, sigma+uint64(v)*8))
						dv := math.Float64frombits(LoadU64(wp, g.H, delta+uint64(v)*8))
						nbrs := g.Neighbors(wp, v, scratch)
						scratch = nbrs
						for _, u := range nbrs {
							wp.AdvanceUser(12)
							if level[u] != int32(d)-1 || sv == 0 {
								continue
							}
							su := math.Float64frombits(LoadU64(wp, g.H, sigma+uint64(u)*8))
							acc[u] += su / sv * (1 + dv) // yield-free
						}
						if v != src {
							StoreU64(wp, g.H, scores+uint64(v)*8, math.Float64bits(dv))
						}
					}
				})
			// Commit dependencies for the next (shallower) level.
			for _, u := range levels[d-1] {
				du := math.Float64frombits(LoadU64(p, g.H, delta+uint64(u)*8))
				StoreU64(p, g.H, delta+uint64(u)*8, math.Float64bits(du+acc[u]))
				acc[u] = 0
			}
		}
		res.ElapsedCycles = p.Now() - start
	})
	e.Run()
	return res
}

// ReferenceBC computes single-source Brandes dependencies in plain Go.
func ReferenceBC(n uint32, edges [][2]uint32, src uint32) []float64 {
	adj := make([][]uint32, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	sigma := make([]float64, n)
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	sigma[src] = 1
	level[src] = 0
	var order []uint32
	queue := []uint32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range adj[u] {
			if level[v] == -1 {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
			if level[v] == level[u]+1 {
				sigma[v] += sigma[u]
			}
		}
	}
	delta := make([]float64, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, u := range adj[v] {
			if level[u] == level[v]-1 && sigma[v] != 0 {
				delta[u] += sigma[u] / sigma[v] * (1 + delta[v])
			}
		}
	}
	delta[src] = 0
	return delta
}
