package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"aquila/internal/sim/engine"
)

// unvisited marks a vertex with no BFS parent yet.
const unvisited = ^uint32(0)

// BFSResult reports one BFS run.
type BFSResult struct {
	Rounds        int
	Visited       uint64
	ElapsedCycles uint64
	// ParentsOff is the heap offset of the parents array (uint32 per
	// vertex; unvisited = 0xffffffff).
	ParentsOff uint64
	// Acct aggregates worker cycle accounting by kind (user, system,
	// iowait, lockwait) for the execution-time breakdown of Fig 6(c).
	Acct [4]uint64
}

// RunBFS executes a frontier-based BFS with Ligra's sparse/dense direction
// switching over `threads` simulated threads. The graph and the parents
// array live in g's heap; with a mapped heap every access runs through the
// mmio path. The engine must be idle (no running simulation) when called.
func RunBFS(e *engine.Engine, g *Graph, src uint32, threads int) BFSResult {
	if threads < 1 {
		threads = 1
	}
	var res BFSResult
	var workers []*engine.Proc
	mainCPU := e.NumCPUs() - 1
	workerCPU := func(i int) int {
		if threads < e.NumCPUs() {
			return i % (e.NumCPUs() - 1)
		}
		return i % e.NumCPUs()
	}

	e.Spawn(mainCPU, "bfs-main", func(p *engine.Proc) {
		start := p.Now()
		n := g.N
		parentsOff := g.H.Alloc(uint64(n) * 4)
		res.ParentsOff = parentsOff
		// Initialize parents to unvisited with bulk sequential stores.
		if g.unvisited == nil {
			g.unvisited = bytes.Repeat([]byte{0xff}, 1<<20)
		}
		total := uint64(n) * 4
		for off := uint64(0); off < total; off += uint64(len(g.unvisited)) {
			end := off + uint64(len(g.unvisited))
			if end > total {
				end = total
			}
			g.H.Store(p, parentsOff+off, g.unvisited[:end-off])
		}
		g.StoreU32(p, parentsOff+uint64(src)*4, src)

		// claimed is the frontier-dedup bitmap (transient state Ligra
		// keeps in malloc'd memory; modeled in Go memory and charged
		// via the per-step costs below).
		claimed := make([]uint64, (n+63)/64)
		claim := func(v uint32) bool {
			w, b := v/64, uint64(1)<<(v%64)
			if claimed[w]&b != 0 {
				return false
			}
			claimed[w] |= b
			return true
		}
		claim(src)

		frontier := NewSparseSubset(n, []uint32{src})
		res.Visited = 1
		denseThreshold := g.M / 20

		for frontier.Len() > 0 {
			res.Rounds++
			useDense := frontier.Len()*10 > uint64(denseThreshold) && frontier.Len() > uint64(threads)
			locals := make([][]uint32, threads)
			wg := engine.NewWaitGroup(e, fmt.Sprintf("bfs-round-%d", res.Rounds))
			wg.Add(threads)

			if useDense {
				frontier.toDense()
				per := (n + uint32(threads) - 1) / uint32(threads)
				for t := 0; t < threads; t++ {
					t := t
					lo := uint32(t) * per
					hi := lo + per
					if hi > n {
						hi = n
					}
					w := e.SpawnAt(workerCPU(t), "bfs-w", p.Now(), func(wp *engine.Proc) {
						var scratch []uint32
						for v := lo; v < hi; v++ {
							wp.AdvanceUser(8)
							if claimed[v/64]&(1<<(v%64)) != 0 {
								continue
							}
							nbrs := g.Neighbors(wp, v, scratch)
							scratch = nbrs
							for _, u := range nbrs {
								wp.AdvanceUser(12)
								if frontier.Has(u) {
									if claim(v) {
										g.StoreU32(wp, parentsOff+uint64(v)*4, u)
										locals[t] = append(locals[t], v)
									}
									break
								}
							}
						}
						// Not deferred: a crash must unwind this worker without
						// releasing the round's waitgroup (crashclean).
						wg.Done(wp)
					})
					workers = append(workers, w)
				}
			} else {
				sparse := frontier.sparse
				per := (len(sparse) + threads - 1) / threads
				for t := 0; t < threads; t++ {
					t := t
					lo := t * per
					hi := lo + per
					if lo > len(sparse) {
						lo = len(sparse)
					}
					if hi > len(sparse) {
						hi = len(sparse)
					}
					w := e.SpawnAt(workerCPU(t), "bfs-w", p.Now(), func(wp *engine.Proc) {
						var scratch []uint32
						for _, u := range sparse[lo:hi] {
							nbrs := g.Neighbors(wp, u, scratch)
							scratch = nbrs
							for _, v := range nbrs {
								wp.AdvanceUser(12)
								if claim(v) {
									g.StoreU32(wp, parentsOff+uint64(v)*4, u)
									locals[t] = append(locals[t], v)
								}
							}
						}
						// Not deferred: a crash must unwind this worker without
						// releasing the round's waitgroup (crashclean).
						wg.Done(wp)
					})
					workers = append(workers, w)
				}
			}
			wg.Wait(p)
			total := 0
			for _, l := range locals {
				total += len(l)
			}
			next := make([]uint32, 0, total)
			for _, l := range locals {
				next = append(next, l...)
			}
			p.AdvanceUser(uint64(len(next))/8 + 10)
			res.Visited += uint64(len(next))
			frontier = NewSparseSubset(n, next)
		}
		res.ElapsedCycles = p.Now() - start
	})
	e.Run()
	for _, w := range workers {
		for k := 0; k < 4; k++ {
			res.Acct[k] += w.Accounted(engine.Kind(k))
		}
	}
	return res
}

// Parent reads a vertex's BFS parent from the heap.
func Parent(p *engine.Proc, h Heap, parentsOff uint64, v uint32) uint32 {
	var b [4]byte
	h.Load(p, parentsOff+uint64(v)*4, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// ReferenceBFS computes reachability and BFS levels in plain Go for
// verification.
func ReferenceBFS(n uint32, edges [][2]uint32, src uint32) []int32 {
	adj := make([][]uint32, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	queue := []uint32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if level[v] == -1 {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return level
}
