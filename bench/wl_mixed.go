package main

import (
	"encoding/binary"
	"math/rand"

	"aquila"
	"aquila/internal/host"
	"aquila/internal/iface"
)

// evict-mixed-16t and linux-evict-mixed-16t: frozen sizes.
const (
	mixedThreads    = 16
	mixedCacheBytes = 32 << 20
	mixedFileBytes  = 256 << 20 // 8x the cache
	mixedPages      = mixedFileBytes / 4096
	// Ops per thread of one measured phase. The Linux run replays a prefix
	// of the same per-thread traces, sized to the same host time.
	mixedOpsPerThread      = 16000
	linuxMixedOpsPerThread = 11000
	// storeBit marks a store in a generated op; the rest is the page index.
	storeBit = 1 << 31
)

// genMixedTrace generates thread t's trace: uniform random pages of its
// partition (pages ≡ t mod mixedThreads), 2 loads : 1 store. A shorter trace
// from the same seed is a prefix of a longer one.
//
// The partition is deliberate. Threads contend in everything the cache
// shares (freelist, LRU, evictor, shootdowns, the device) but never fault on
// one page at once: at HEAD two concurrent major faults on the same page can
// each publish a Page for it (core.majorFault re-probes after its yielding
// insert charge only when huge pages are enabled), and a store made through
// the losing one is dropped at eviction. With uniformly shared pages this
// workload loses 1-2 stores in 224 K operations; see README "Known issues".
func genMixedTrace(seed int64, t, n int) []uint32 {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(t)))
	ops := make([]uint32, n)
	for i := range ops {
		ops[i] = uint32(rng.Intn(mixedPages/mixedThreads)*mixedThreads + t)
		if rng.Intn(3) == 0 {
			ops[i] |= storeBit
		}
	}
	return ops
}

func setupEvictMixed(cfg runCfg) *instance {
	return setupMixed(cfg, aquila.ModeAquila, mixedOpsPerThread)
}

func setupLinuxEvictMixed(cfg runCfg) *instance {
	return setupMixed(cfg, aquila.ModeLinuxMmap, linuxMixedOpsPerThread)
}

// setupMixed boots one world over pmem and generates the traces. A thread
// stamps 8 bytes of a page on a store and expects its last stamp back on a
// load (read-your-writes).
func setupMixed(cfg runCfg, mode aquila.Mode, opsPerThread int) *instance {
	n := scaleN(opsPerThread, cfg.scale, 64)
	opts := aquila.Options{
		Mode: mode, Device: aquila.DevicePMem, CPUs: 32,
		CacheBytes: mixedCacheBytes, DeviceBytes: mixedFileBytes + 64<<20, Seed: cfg.seed,
	}
	if mode == aquila.ModeAquila {
		opts.Params = tunedParams(mixedCacheBytes)
	}
	sys := aquila.New(cfg.options(opts))
	if mode != aquila.ModeAquila {
		// At HEAD the baseline's dirty throttling (balance_dirty_pages)
		// loses stores: writebackBatch flags a page clean and only later
		// copies its frame, and nothing stops direct reclaim from recycling
		// that frame in between. Every seed loses at least one stamp, so the
		// throttle is off here and dirty pages leave through reclaim and the
		// closing msync only; see README "Known issues".
		sys.Host.P.DirtyRatio = 1
	}
	var f iface.File
	var m iface.Mapping
	sys.Do(func(p *aquila.Proc) {
		f = sys.NS.Create(p, "mixed", mixedFileBytes)
		m = wrapMapping(sys.NS.Mmap(p, f, mixedFileBytes), cfg.rec)
		m.Advise(p, aquila.AdviceRandom)
	})
	trace := make([][]uint32, mixedThreads)
	shadow := make([]uint64, mixedPages) // last stamp stored to each page, 0 = never stored
	lat := make([][]uint64, mixedThreads)
	for t := range trace {
		trace[t] = genMixedTrace(cfg.seed, t, n)
		lat[t] = make([]uint64, 0, n)
	}
	failed := make([]uint64, mixedThreads)
	stores := make([]uint64, mixedThreads)

	run := func() phase {
		sys.Run(mixedThreads, func(t int, p *aquila.Proc) {
			var buf [8]byte
			for i, op := range trace[t] {
				pg := uint64(op &^ storeBit)
				off := pg*4096 + uint64(t)*8
				var ok bool
				t0 := p.Now()
				if op&storeBit != 0 {
					stamp := uint64(t+1)<<48 | uint64(i+1)
					binary.LittleEndian.PutUint64(buf[:], stamp)
					cfg.rec.begin(p, "op.store")
					ok = guardedStore(p, m, off, buf[:])
					shadow[pg] = stamp
					stores[t]++
				} else {
					cfg.rec.begin(p, "op.load")
					ok = guardedLoad(p, m, off, buf[:])
					ok = ok && binary.LittleEndian.Uint64(buf[:]) == shadow[pg]
				}
				lat[t] = append(lat[t], p.Now()-t0)
				cfg.rec.end(p)
				if !ok {
					failed[t]++
				}
			}
		})
		// The closing msync belongs to the workload: it is what makes the
		// acknowledged stamps durable.
		ph := phase{ops: uint64(mixedThreads*n) + 1}
		sys.Do(func(p *aquila.Proc) {
			cfg.rec.begin(p, "op.msync")
			if err := m.Msync(p); err != nil {
				ph.failed++
			}
			cfg.rec.end(p)
		})
		for t := range lat {
			ph.lat = append(ph.lat, lat[t]...)
			ph.failed += failed[t]
			ph.stored += 8 * stores[t]
		}
		return ph
	}
	// verify proves every acknowledged stamp is on the device: it reads each
	// stored-to page back with explicit I/O that bypasses the DRAM cache
	// (Aquila's File reads the device directly; Linux needs O_DIRECT).
	verify := func(ph *phase) {
		sys.Do(func(p *aquila.Proc) {
			df := f
			if mode != aquila.ModeAquila {
				df = (&host.Namespace{OS: sys.Host, Direct: true}).Open(p, "mixed")
			}
			df = wrapFile(df, cfg.rec)
			page := make([]byte, 4096)
			for pg, want := range shadow {
				if want == 0 {
					continue
				}
				err := df.Pread(p, page, uint64(pg)*4096)
				if err != nil || binary.LittleEndian.Uint64(page[pg%mixedThreads*8:]) != want {
					ph.failed++
				}
			}
		})
	}
	return &instance{sys: sys, run: run, verify: verify}
}
