package main

import (
	"fmt"
	"math/rand"

	"aquila"
	"aquila/internal/iface"
)

// fault-cold-32t: frozen sizes.
const (
	faultThreads    = 32
	faultCacheBytes = 128 << 20
	// faultPagesPerThread × faultThreads pages = the shared 96 MB file.
	faultPagesPerThread = 768
	// faultOps is the total fault count of one measured phase
	// (faultPagesPerThread × faultThreads × rounds at scale 1).
	faultOps = 16 * faultThreads * faultPagesPerThread
)

func setupFaultCold(cfg runCfg) *instance {
	ops := scaleN(faultOps, cfg.scale, faultThreads)
	perRound := faultThreads * faultPagesPerThread
	rounds := (ops + perRound - 1) / perRound
	perThread := ops / (rounds * faultThreads)
	fileBytes := uint64(faultThreads*perThread) * 4096

	sys := aquila.New(cfg.options(aquila.Options{
		Mode: aquila.ModeAquila, Device: aquila.DevicePMem, CPUs: faultThreads,
		CacheBytes: faultCacheBytes, DeviceBytes: 256 << 20, Seed: cfg.seed,
		Params: tunedParams(faultCacheBytes),
	}))
	// order[r][t] is thread t's page partition in round r, shuffled.
	rng := rand.New(rand.NewSource(cfg.seed))
	order := make([][][]uint32, rounds)
	for r := range order {
		order[r] = make([][]uint32, faultThreads)
		for t := range order[r] {
			pages := make([]uint32, perThread)
			for i := range pages {
				pages[i] = uint32(t*perThread + i)
			}
			rng.Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
			order[r][t] = pages
		}
	}
	lat := make([][]uint64, faultThreads)
	for t := range lat {
		lat[t] = make([]uint64, 0, rounds*perThread)
	}
	failed := make([]uint64, faultThreads)

	run := func() phase {
		for r := 0; r < rounds; r++ {
			name := fmt.Sprintf("cold-%d", r)
			var m iface.Mapping
			sys.Do(func(p *aquila.Proc) {
				f := sys.NS.Create(p, name, fileBytes)
				m = wrapMapping(sys.NS.Mmap(p, f, fileBytes), cfg.rec)
				m.Advise(p, aquila.AdviceRandom)
			})
			sys.Run(faultThreads, func(t int, p *aquila.Proc) {
				var buf [8]byte
				for _, pg := range order[r][t] {
					cfg.rec.begin(p, "op.load")
					t0 := p.Now()
					ok := guardedLoad(p, m, uint64(pg)*4096, buf[:])
					lat[t] = append(lat[t], p.Now()-t0)
					cfg.rec.end(p)
					// A fresh file reads as zeros.
					if !ok || buf != [8]byte{} {
						failed[t]++
					}
				}
			})
			sys.Do(func(p *aquila.Proc) {
				m.Munmap(p)
				sys.NS.Delete(p, name)
			})
		}
		ph := phase{ops: uint64(rounds * faultThreads * perThread)}
		for t := range lat {
			ph.lat = append(ph.lat, lat[t]...)
			ph.failed += failed[t]
		}
		return ph
	}
	bypass := func(d layerDelta, ph *phase) error {
		if major, evicted := d.n["core.major_faults"], d.n["core.evictions"]; evicted != 0 || major != ph.ops {
			return fmt.Errorf("fault-cold-32t must be all cold faults and no evictions: major_faults=%d ops=%d evictions=%d",
				major, ph.ops, evicted)
		}
		return nil
	}
	return &instance{sys: sys, run: run, bypass: bypass}
}

// guardedLoad is one mapped load; a delivered SIGBUS makes it a failed
// operation instead of ending the benchmark.
func guardedLoad(p *aquila.Proc, m iface.Mapping, off uint64, buf []byte) (ok bool) {
	defer absorbSigbus(&ok)
	m.Load(p, off, buf)
	return true
}

// guardedStore is guardedLoad's store twin.
func guardedStore(p *aquila.Proc, m iface.Mapping, off uint64, buf []byte) (ok bool) {
	defer absorbSigbus(&ok)
	m.Store(p, off, buf)
	return true
}
