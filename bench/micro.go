package main

import (
	"math/rand"
	"runtime"
	"time"

	"aquila"
	"aquila/internal/graph"
	"aquila/internal/iface"
	"aquila/internal/kvs/kreon"
	"aquila/internal/kvs/lsm"
	"aquila/internal/obs"
	"aquila/internal/sim/cpu"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/mem"
	"aquila/internal/sim/pagetable"
	"aquila/internal/spdk"
	"aquila/internal/ycsb"
)

// The micro-loops give each layer's host cost in isolation: every loop calls
// only that layer's exported functions, so a change to one layer moves its
// own row and predicts the end-to-end rows listed in the README. They are
// context for the end-to-end numbers, not gated: one short pass each.

const pageBytes = 4096

// perOp times fn, which performs n operations, and returns host ns and
// mallocs per operation.
func perOp(n uint64, fn func()) (ns, allocs float64) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	fn()
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return float64(el.Nanoseconds()) / float64(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
}

// inProc runs body as one simulated thread of a fresh bare engine.
func inProc(cfg engine.Config, body func(p *engine.Proc)) func() {
	e := engine.New(cfg)
	e.Spawn(0, "micro", body)
	return e.Run
}

// micro is one pass over the micro-loops.
type micro struct {
	// scale shrinks every loop for the tier-1 smoke run.
	scale float64
	out   map[string]float64
}

// n scales a loop's iteration count down to a power of two, at least 64, so
// the index masks below keep working.
func (m *micro) n(base uint64) uint64 {
	n := uint64(64)
	for float64(n*2) <= float64(base)*m.scale {
		n *= 2
	}
	return n
}

// microLoops runs every micro-loop once.
func microLoops(scale float64) map[string]float64 {
	m := &micro{scale: min(scale, 1), out: make(map[string]float64)}
	m.engine()
	m.hardware()
	m.devices()
	m.mmio(aquila.ModeAquila, "core.")
	m.mmio(aquila.ModeLinuxMmap, "host.")
	m.hostIO()
	m.stores()
	m.apps()
	return m.out
}

func (m *micro) engine() {
	out, n := m.out, m.n(1<<18)
	bare := engine.Config{NumCPUs: 2, Seed: 1}
	out["engine.advance_ns"], _ = perOp(n, inProc(bare, func(p *engine.Proc) {
		for i := uint64(0); i < n; i++ {
			p.AdvanceUser(10)
		}
	}))
	// Two processes on two CPUs advancing in lockstep: every Advance moves
	// the caller past the other, so every Advance is one handoff.
	e := engine.New(bare)
	for c := 0; c < 2; c++ {
		e.Spawn(c, "pingpong", func(p *engine.Proc) {
			for i := uint64(0); i < n/2; i++ {
				p.AdvanceUser(10)
			}
		})
	}
	out["engine.handoff_ns"], out["engine.handoff_allocs"] = perOp(n, e.Run)

	e = engine.New(bare)
	mu := engine.NewMutex(e, "micro")
	for c := 0; c < 2; c++ {
		e.Spawn(c, "locker", func(p *engine.Proc) {
			for i := uint64(0); i < n/2; i++ {
				mu.Lock(p)
				p.AdvanceSystem(50)
				mu.Unlock(p)
			}
		})
	}
	out["engine.mutex_handoff_ns"], _ = perOp(n, e.Run)

	e = engine.New(bare)
	out["engine.spawn_run_ns"], _ = perOp(n/8, func() {
		for i := uint64(0); i < n/8; i++ {
			e.Spawn(0, "spawned", func(*engine.Proc) {})
			e.Run()
		}
	})
}

func (m *micro) hardware() {
	out, n := m.out, m.n(1<<20)
	const tlbEntries = 1536 // the worlds' per-CPU TLB size
	tlb := cpu.NewTLB(tlbEntries, 1)
	for v := uint64(0); v < 1024; v++ {
		tlb.Insert(1, v)
	}
	hits := 0
	out["cpu.tlb_lookup_ns"], _ = perOp(n, func() {
		for i := uint64(0); i < n; i++ {
			if tlb.Lookup(1, i&1023) {
				hits++
			}
		}
	})
	out["cpu.tlb_insert_ns"], _ = perOp(n, func() {
		for i := uint64(0); i < n; i++ {
			tlb.Insert(1, i&8191)
		}
	})
	set := cpu.NewTLBSet(32, tlbEntries, 1)
	out["cpu.tlb_shootdown32_ns"], _ = perOp(n/16, func() {
		for i := uint64(0); i < n/16; i++ {
			set.CPU(int(i&31)).Insert(1, i&1023)
			set.InvalidatePageAll(1, i&1023)
		}
	})

	pt := pagetable.New(1)
	flags := pagetable.FlagPresent | pagetable.FlagUser
	for v := uint64(0); v < 4096; v++ {
		pt.Map(v*pageBytes, v, flags, pagetable.Size4K)
	}
	out["pagetable.lookup_ns"], _ = perOp(n, func() {
		for i := uint64(0); i < n; i++ {
			if _, ok := pt.Lookup((i & 4095) * pageBytes); ok {
				hits++
			}
		}
	})
	out["pagetable.map_unmap_ns"], _ = perOp(n/4, func() {
		for i := uint64(0); i < n/4; i++ {
			va := (1<<20 + i&4095) * pageBytes
			pt.Map(va, i, flags, pagetable.Size4K)
			pt.Unmap(va)
		}
	})

	frames := mem.NewAllocator(64<<20, 2)
	out["mem.alloc_release_ns"], _ = perOp(n, func() {
		for i := uint64(0); i < n; i++ {
			frames.Release(frames.Alloc(int(i & 1)))
		}
	})
	buddy := mem.NewBuddyAllocator(64<<20, 2)
	out["mem.block_alloc_release_ns"], _ = perOp(n/64, func() {
		for i := uint64(0); i < n/64; i++ {
			buddy.ReleaseBlock(buddy.AllocBlock(int(i & 1)))
		}
	})
	if hits == 0 {
		panic("bench: micro-loop lookups never hit")
	}
}

func (m *micro) devices() {
	out, n := m.out, m.n(1<<16)
	store := device.NewStore(64 << 20)
	buf := make([]byte, pageBytes)
	out["device.store_write_persist_4k_ns"], _ = perOp(n, func() {
		for i := uint64(0); i < n; i++ {
			off := (i & 4095) * pageBytes
			store.WriteAt(off, buf)
			store.Persist(off, pageBytes, i)
		}
	})
	out["device.store_read_4k_ns"], _ = perOp(n, func() {
		for i := uint64(0); i < n; i++ {
			store.ReadAt((i&4095)*pageBytes, buf)
		}
	})
	nvme := device.NewNVMe(64<<20, device.DefaultNVMeConfig())
	pmem := device.NewPMem(64<<20, device.DefaultPMemConfig())
	var now uint64
	out["device.nvme_submit_ns"], _ = perOp(n, func() {
		for i := uint64(0); i < n; i++ {
			now = nvme.Submit(now, pageBytes, i&1 == 0)
		}
	})
	out["device.pmem_submit_ns"], _ = perOp(n, func() {
		for i := uint64(0); i < n; i++ {
			now = pmem.Submit(now, pageBytes, i&1 == 0)
		}
	})

	drv := spdk.NewDriver(nvme)
	oneCPU := engine.Config{NumCPUs: 1, Seed: 1}
	out["spdk.read_4k_ns"], _ = perOp(n/4, inProc(oneCPU, func(p *engine.Proc) {
		for i := uint64(0); i < n/4; i++ {
			drv.Read(p, (i&4095)*pageBytes, buf)
		}
	}))
	out["spdk.write_4k_ns"], _ = perOp(n/4, inProc(oneCPU, func(p *engine.Proc) {
		for i := uint64(0); i < n/4; i++ {
			drv.Write(p, (i&4095)*pageBytes, buf)
		}
	}))
}

// microWorld boots a small world over pmem with one mapped file.
func microWorld(mode aquila.Mode, cacheBytes, fileBytes uint64) (*aquila.System, iface.File, iface.Mapping) {
	sys := aquila.New(aquila.Options{
		Mode: mode, Device: aquila.DevicePMem, CPUs: 2,
		CacheBytes: cacheBytes, DeviceBytes: fileBytes + 64<<20,
	})
	var f iface.File
	var m iface.Mapping
	sys.Do(func(p *aquila.Proc) {
		f = sys.NS.Create(p, "micro", fileBytes)
		m = sys.NS.Mmap(p, f, fileBytes)
		m.Advise(p, aquila.AdviceRandom)
	})
	return sys, f, m
}

// mmio times the mapped-access paths of one world from one simulated thread:
// a cold major fault and a hit, and for Aquila the write-protect upgrade, the
// per-page msync and a fault that has to evict.
func (m *micro) mmio(mode aquila.Mode, prefix string) {
	out, pages := m.out, m.n(4096)
	var buf [8]byte
	sys, _, mp := microWorld(mode, 64<<20, pages*pageBytes)
	ns, allocs := perOp(pages, func() {
		sys.Do(func(p *aquila.Proc) {
			for pg := uint64(0); pg < pages; pg++ {
				mp.Load(p, pg*pageBytes, buf[:])
			}
		})
	})
	out[prefix+"fault_major_ns"] = ns
	hits := m.n(1 << 18)
	out[prefix+"load_hit_ns"], _ = perOp(hits, func() {
		sys.Do(func(p *aquila.Proc) {
			for i := uint64(0); i < hits; i++ {
				mp.Load(p, (i&(pages-1))*pageBytes, buf[:])
			}
		})
	})
	if mode != aquila.ModeAquila {
		return
	}
	out[prefix+"fault_major_allocs"] = allocs
	out[prefix+"store_wp_ns"], _ = perOp(pages, func() {
		sys.Do(func(p *aquila.Proc) {
			for pg := uint64(0); pg < pages; pg++ {
				mp.Store(p, pg*pageBytes, buf[:])
			}
		})
	})
	out[prefix+"msync_page_ns"], _ = perOp(pages, func() {
		sys.Do(func(p *aquila.Proc) {
			if err := mp.Msync(p); err != nil {
				panic(err)
			}
		})
	})
	// A file 8x the cache: nearly every random load evicts.
	evicting := m.n(1 << 15)
	sys, _, mp = microWorld(mode, 8<<20, 64<<20)
	rng := rand.New(rand.NewSource(1))
	out[prefix+"fault_evict_ns"], _ = perOp(evicting, func() {
		sys.Do(func(p *aquila.Proc) {
			for i := uint64(0); i < evicting; i++ {
				mp.Load(p, uint64(rng.Intn(64<<20/pageBytes))*pageBytes, buf[:])
			}
		})
	})
}

// hostIO times the Linux baseline's explicit-I/O paths.
func (m *micro) hostIO() {
	out, n := m.out, m.n(1<<13)
	buf := make([]byte, pageBytes)
	sys, f, _ := microWorld(aquila.ModeLinuxDirect, 16<<20, n*pageBytes)
	out["host.pread_direct_ns"], _ = perOp(n, func() {
		sys.Do(func(p *aquila.Proc) {
			for i := uint64(0); i < n; i++ {
				if err := f.Pread(p, buf, i*pageBytes); err != nil {
					panic(err)
				}
			}
		})
	})
	sys, f, _ = microWorld(aquila.ModeLinuxMmap, 16<<20, n*pageBytes)
	out["host.pwrite_fsync_ns"], _ = perOp(n, func() {
		sys.Do(func(p *aquila.Proc) {
			for i := uint64(0); i < n; i++ {
				if err := f.Pwrite(p, buf, i*pageBytes); err != nil {
					panic(err)
				}
				if err := f.Fsync(p); err != nil {
					panic(err)
				}
			}
		})
	})
}

// stores times one get and one put of each key-value store over an Aquila
// world whose cache holds the whole dataset.
func (m *micro) stores() {
	out, records := m.out, m.n(8192)
	boot := func() *aquila.System {
		return aquila.New(aquila.Options{Mode: aquila.ModeAquila, Device: aquila.DevicePMem, CPUs: 2,
			CacheBytes: 64 << 20, DeviceBytes: 256 << 20})
	}
	loop := func(sys *aquila.System, kv ycsb.KV, get bool) func() {
		return func() {
			sys.Do(func(p *aquila.Proc) {
				for i := uint64(0); i < records; i++ {
					id := i * 7919 % records
					if !get {
						kv.Put(p, ycsb.KeyBytes(id), ycsb.Value(id, 1000))
					} else if v, ok := kv.Get(p, ycsb.KeyBytes(id)); !ok || !ycsb.CheckValue(id, v) {
						panic("bench: micro-loop store lost a record")
					}
				}
			})
		}
	}
	sys := boot()
	var kdb *kreon.DB
	sys.Do(func(p *aquila.Proc) {
		kdb = kreon.Open(p, kreon.Options{NS: sys.NS, LogBytes: 32 << 20, IndexBytes: 16 << 20})
	})
	out["kreon.put_ns"], _ = perOp(records, loop(sys, kdb, false))
	out["kreon.get_ns"], _ = perOp(records, loop(sys, kdb, true))

	sys = boot()
	var ldb *lsm.DB
	sys.Do(func(p *aquila.Proc) {
		ldb = lsm.Open(p, sys.Sim, lsm.Options{NS: sys.NS, Mode: lsm.IOMmap, BlockCacheBytes: 16 << 20, DisableWAL: true, Seed: 1})
	})
	out["lsm.put_ns"], _ = perOp(records, loop(sys, ldb, false))
	out["lsm.get_ns"], _ = perOp(records, loop(sys, ldb, true))
}

func (m *micro) apps() {
	out := m.out
	const vertices = 1 << 13
	edges := graph.Symmetrize(graph.RMAT(graph.RMATConfig{Vertices: vertices, EdgeFactor: 10, Seed: 1}))
	heap := graph.NewMemHeap(16 << 20)
	oneCPU := engine.Config{NumCPUs: 1, Seed: 1}
	var g *graph.Graph
	inProc(oneCPU, func(p *engine.Proc) { g = graph.Build(p, heap, vertices, edges) })()
	visits := m.n(1 << 17)
	out["graph.neighbors_ns"], _ = perOp(visits, inProc(oneCPU, func(p *engine.Proc) {
		var scratch []uint32
		for i := uint64(0); i < visits; i++ {
			scratch = g.Neighbors(p, uint32(i&(vertices-1)), scratch)
		}
	}))

	gen := ycsb.NewGenerator(ycsb.Config{Workload: ycsb.WorkloadA, Records: 100000, Distribution: ycsb.Zipfian, Seed: 1})
	n := m.n(1 << 19)
	var keys uint64
	out["ycsb.next_ns"], _ = perOp(n, func() {
		for i := uint64(0); i < n; i++ {
			keys += gen.Next().Key
		}
	})

	hist := obs.NewHistogram()
	out["obs.hist_record_ns"], _ = perOp(n, func() {
		for i := uint64(0); i < n; i++ {
			hist.Record(i)
		}
	})
	out["obs.span_pair_ns"], _ = perOp(n, inProc(engine.Config{NumCPUs: 1, Seed: 1, Spans: obs.NewTracer()}, func(p *engine.Proc) {
		for i := uint64(0); i < n; i++ {
			p.BeginSpan("micro")
			p.EndSpan()
		}
	}))
	if keys == 0 || hist.Count() != n {
		panic("bench: micro-loop results lost")
	}
}
