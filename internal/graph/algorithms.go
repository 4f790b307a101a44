package graph

import (
	"encoding/binary"
	"fmt"
	"math"

	"aquila/internal/sim/engine"
)

// PageRank, the one Ligra algorithm carried beyond BFS. Like BFS, all
// per-vertex state lives in the Heap, so with a mapped heap every access
// exercises the mmio path under study; it follows Ligra's vertexMap/edgeMap
// structure with parallel supersteps.

// parallelFor runs fn over [0, n) split across `threads` simulated workers
// spawned from p's engine, and waits for all of them.
func parallelFor(e *engine.Engine, p *engine.Proc, name string, n uint32, threads int,
	fn func(wp *engine.Proc, lo, hi uint32)) {
	if threads < 1 {
		threads = 1
	}
	wg := engine.NewWaitGroup(e, name)
	wg.Add(threads)
	per := (n + uint32(threads) - 1) / uint32(threads)
	workerCPU := func(i int) int {
		if threads < e.NumCPUs() {
			return i % (e.NumCPUs() - 1)
		}
		return i % e.NumCPUs()
	}
	for t := 0; t < threads; t++ {
		lo := uint32(t) * per
		hi := lo + per
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		e.SpawnAt(workerCPU(t), name, p.Now(), func(wp *engine.Proc) {
			fn(wp, lo, hi)
			// Not deferred: a crash must unwind this worker without
			// releasing the round's waitgroup (crashclean).
			wg.Done(wp)
		})
	}
	wg.Wait(p)
}

// PageRankResult reports one PageRank run.
type PageRankResult struct {
	Iterations    int
	ElapsedCycles uint64
	// RanksOff is the heap offset of the float64 rank array.
	RanksOff uint64
	// Delta is the L1 change of the final iteration.
	Delta float64
}

// RunPageRank executes power-iteration PageRank (damping 0.85) until the L1
// delta drops below eps or maxIter is reached. Rank vectors live in the heap
// as float64 bits; the transition uses out-edges, so the graph should be
// symmetrized for in-place pull semantics (as Ligra's PageRank examples do).
func RunPageRank(e *engine.Engine, g *Graph, threads, maxIter int, eps float64) PageRankResult {
	var res PageRankResult
	mainCPU := e.NumCPUs() - 1
	e.Spawn(mainCPU, "pagerank-main", func(p *engine.Proc) {
		start := p.Now()
		n := g.N
		cur := g.H.Alloc(uint64(n) * 8)
		next := g.H.Alloc(uint64(n) * 8)
		res.RanksOff = cur
		init := 1.0 / float64(n)
		// Initialize rank vector with bulk stores.
		buf := make([]byte, 8*4096)
		for i := 0; i < len(buf); i += 8 {
			binary.LittleEndian.PutUint64(buf[i:], math.Float64bits(init))
		}
		for off := uint64(0); off < uint64(n)*8; off += uint64(len(buf)) {
			end := off + uint64(len(buf))
			if end > uint64(n)*8 {
				end = uint64(n) * 8
			}
			g.H.Store(p, cur+off, buf[:end-off])
		}

		const damping = 0.85
		for iter := 0; iter < maxIter; iter++ {
			res.Iterations = iter + 1
			deltas := make([]float64, threads)
			parallelFor(e, p, fmt.Sprintf("pr-%d", iter), n, threads,
				func(wp *engine.Proc, lo, hi uint32) {
					var scratch []uint32
					var local float64
					tid := -1
					for v := lo; v < hi; v++ {
						// Pull: sum rank/deg over neighbors.
						nbrs := g.Neighbors(wp, v, scratch)
						scratch = nbrs
						sum := 0.0
						for _, u := range nbrs {
							ru := math.Float64frombits(g.LoadU64(wp, cur+uint64(u)*8))
							du := g.Degree(wp, u)
							if du > 0 {
								sum += ru / float64(du)
							}
							wp.AdvanceUser(6)
						}
						newRank := (1-damping)/float64(n) + damping*sum
						old := math.Float64frombits(g.LoadU64(wp, cur+uint64(v)*8))
						g.StoreU64(wp, next+uint64(v)*8, math.Float64bits(newRank))
						local += math.Abs(newRank - old)
						wp.AdvanceUser(14)
					}
					// Attribute the local delta slot by range start.
					tid = int(lo / ((n + uint32(threads) - 1) / uint32(threads)))
					if tid >= 0 && tid < threads {
						deltas[tid] += local
					}
				})
			res.Delta = 0
			for _, d := range deltas {
				res.Delta += d
			}
			cur, next = next, cur
			res.RanksOff = cur
			if res.Delta < eps {
				break
			}
		}
		res.ElapsedCycles = p.Now() - start
	})
	e.Run()
	return res
}

// Rank reads one vertex's final PageRank value from the heap.
func Rank(p *engine.Proc, h Heap, ranksOff uint64, v uint32) float64 {
	var b [8]byte
	h.Load(p, ranksOff+uint64(v)*8, b[:])
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}
