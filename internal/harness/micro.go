package harness

import (
	"fmt"
	"math/rand"

	"aquila"
	"aquila/internal/core"
	"aquila/internal/obs"
)

// microConfig parameterizes the paper's multithreaded microbenchmark (§5):
// threads issuing 8-byte loads at page-granular offsets within a mapped
// region, every access arranged to take a page fault.
type microConfig struct {
	mode    aquila.Mode
	device  aquila.DeviceKind
	engine  aquila.EngineKind
	cache   uint64
	dataset uint64
	threads int
	// inMemory: touch distinct pages once (cold faults over a dataset
	// that fits); otherwise uniform random over a dataset that does not.
	inMemory     bool
	opsPerThread int
	sharedFile   bool
	cpus         int
	seed         int64
	// huge enables the 2 MB mmio path (Aquila mode only): the runtime gets a
	// nonzero Params.HugeFaultDensity and every mapping is AdviseHuge'd, so
	// extents promote on first fault.
	huge bool
}

// in returns the configuration run in the given world.
func (c microConfig) in(mode aquila.Mode) microConfig {
	c.mode = mode
	return c
}

// microResult aggregates a run.
type microResult struct {
	ops     uint64
	elapsed uint64
	lat     *obs.Histogram
	// stats snapshots the Aquila runtime's counters after the run (zero in a
	// Linux world), and worldBreak is the world's whole fault-cycle breakdown,
	// setup included. A result holds no reference to the world itself, so
	// keeping one does not keep a retired world alive.
	stats      core.Stats
	worldBreak *obs.Breakdown
	// breakDelta is the world's fault-cycle breakdown accumulated during
	// the measured phase only (setup excluded).
	breakDelta map[string]uint64
}

func (r microResult) throughputKops() float64 {
	return aquila.ThroughputOpsPerSec(r.ops, r.elapsed) / 1e3
}

// runMicro boots a world for cfg, executes the microbenchmark in it and
// retires it. With MADV_RANDOM on both worlds, the benchmark isolates the
// fault path itself (no readahead noise).
func runMicro(cfg microConfig) microResult {
	opts := aquila.Options{
		Mode:        cfg.mode,
		Device:      cfg.device,
		Engine:      cfg.engine,
		CacheBytes:  cfg.cache,
		DeviceBytes: cfg.dataset + 96<<20,
		CPUs:        cfg.cpus,
	}
	a := access{
		file: "micro-shared", dataset: cfg.dataset, threads: cfg.threads,
		advice: adviseRandom,
		stream: randStream(cfg.seed, cfg.opsPerThread),
	}
	if !cfg.sharedFile {
		a.file, a.private = "micro", true
	}
	if cfg.inMemory {
		a.stream = coldStream(cfg.seed, cfg.threads, cfg.sharedFile, cfg.opsPerThread)
	}
	if cfg.huge && cfg.mode == aquila.ModeAquila {
		opts.Params = core.ParamsForCache(cfg.cache)
		opts.Params.HugeFaultDensity = hugeDensityDefault
		a.advice = adviseRandomHuge
	}
	sys := boot(opts)
	defer retire(sys.Sim)
	res, _ := drive(sys, a)
	return res
}

// access is one run of the microbenchmark over a booted world: which file(s)
// the threads map and how, and the page stream each of them issues.
type access struct {
	// file names the one shared file; with private set, thread t maps its
	// own "<file>-<t>" holding an equal page-aligned share of dataset.
	file    string
	dataset uint64
	threads int
	private bool
	// advice is madvise'd onto every mapping, in order.
	advice []aquila.Advice
	stream pageStream
}

// The two hint sets the microbenchmarks map with: MADV_RANDOM keeps readahead
// out of the fault path; MADV_HUGEPAGE on top promotes extents on first fault.
var (
	adviseRandom     = []aquila.Advice{aquila.AdviceRandom}
	adviseRandomHuge = []aquila.Advice{aquila.AdviceRandom, aquila.AdviceHuge}
)

// pageStream builds thread t's access sequence over a mapping of mPages
// pages. Each call of the returned function yields the next page and whether
// the access is a store; ok turns false when the thread is done.
type pageStream func(t int, mPages uint64) func() (pg uint64, store, ok bool)

// mapFile creates a file of the given size in sys and maps all of it,
// madvising the hints in order.
func mapFile(p *aquila.Proc, sys *aquila.System, name string, size uint64, advice ...aquila.Advice) aquila.Mapping {
	m := sys.NS.Mmap(p, sys.NS.Create(p, name, size), size)
	for _, adv := range advice {
		m.Advise(p, adv)
	}
	return m
}

// drive is the microbenchmark's timed loop: it creates and maps the files,
// then runs a.threads threads, each issuing one 8-byte Load or Store per page
// of its stream and recording the access latency. Beside the numbers it
// returns each thread's mapping (one shared mapping repeated, or one per
// thread), for callers that go on to msync.
func drive(sys *aquila.System, a access) (microResult, []aquila.Mapping) {
	const pageSize = 4096
	maps := make([]aquila.Mapping, a.threads)
	sys.Do(func(p *aquila.Proc) {
		if a.private {
			per := a.dataset / uint64(a.threads) / pageSize * pageSize
			for t := range maps {
				maps[t] = mapFile(p, sys, fmt.Sprintf("%s-%d", a.file, t), per, a.advice...)
			}
			return
		}
		m := mapFile(p, sys, a.file, a.dataset, a.advice...)
		for t := range maps {
			maps[t] = m
		}
	})

	worldBreak := sys.Host.Break
	if sys.RT != nil {
		worldBreak = sys.RT.Break
	}
	break0 := worldBreak.Map()

	lats := make([]*obs.Histogram, a.threads)
	var ops uint64
	elapsed := sys.Run(a.threads, func(t int, p *aquila.Proc) {
		lat := obs.NewHistogram()
		lats[t] = lat
		buf := make([]byte, 8)
		m := maps[t]
		next := a.stream(t, m.Size()/pageSize)
		for pg, store, ok := next(); ok; pg, store, ok = next() {
			t0 := p.Now()
			if store {
				m.Store(p, pg*pageSize, buf)
			} else {
				m.Load(p, pg*pageSize, buf)
			}
			lat.Record(p.Now() - t0)
			ops++
		}
	})
	res := microResult{
		ops: ops, elapsed: elapsed, lat: mergeHists(lats),
		worldBreak: worldBreak, breakDelta: subMap(worldBreak.Map(), break0),
	}
	if sys.RT != nil {
		res.stats = sys.RT.Stats
	}
	return res, maps
}

// threadRand is thread t's math/rand stream — the one Figs 8 and 10 are
// calibrated on.
func threadRand(seed int64, t int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(t)*7919))
}

// randStream is ops uniform-random loads over a dataset that does not fit the
// cache.
func randStream(seed int64, ops int) pageStream {
	return func(t int, mPages uint64) func() (uint64, bool, bool) {
		rng := threadRand(seed, t)
		i := 0
		return func() (uint64, bool, bool) {
			if i >= ops {
				return 0, false, false
			}
			i++
			return uint64(rng.Int63n(int64(mPages))), false, true
		}
	}
}

// coldStream loads distinct pages in random order: every access is a cold
// fault, the dataset fits in the cache. Threads sharing one mapping partition
// its pages by stride; a thread with its own mapping covers all of it. A
// positive limit keeps the first limit pages of the shuffled order.
func coldStream(seed int64, threads int, shared bool, limit int) pageStream {
	return func(t int, mPages uint64) func() (uint64, bool, bool) {
		first, step := uint64(0), uint64(1)
		if shared {
			first, step = uint64(t), uint64(threads)
		}
		var pages []uint64
		for pg := first; pg < mPages; pg += step {
			pages = append(pages, pg)
		}
		threadRand(seed, t).Shuffle(len(pages), func(i, j int) {
			pages[i], pages[j] = pages[j], pages[i]
		})
		if limit > 0 && len(pages) > limit {
			pages = pages[:limit]
		}
		return func() (uint64, bool, bool) {
			if len(pages) == 0 {
				return 0, false, false
			}
			pg := pages[0]
			pages = pages[1:]
			return pg, false, true
		}
	}
}

// lcgStream is ops uniform-random accesses drawn from a per-thread LCG (the
// ablations' stream). mixed makes every third access a store, so eviction
// always has dirty pages and the writeback path is exercised.
func lcgStream(seed int64, ops int, mixed bool) pageStream {
	return func(t int, mPages uint64) func() (uint64, bool, bool) {
		x := uint64(seed + int64(t)*2654435761)
		i := 0
		return func() (uint64, bool, bool) {
			if i >= ops {
				return 0, false, false
			}
			x = x*6364136223846793005 + 1442695040888963407
			store := mixed && i%3 == 0
			i++
			return (x >> 17) % mPages, store, true
		}
	}
}

// denseStream loads every page of the mapping in order, each thread one
// contiguous chunk (the remainder goes to the last): exactly the access
// pattern extent promotion exists for.
func denseStream(threads int) pageStream {
	return func(t int, mPages uint64) func() (uint64, bool, bool) {
		chunk := mPages / uint64(threads)
		pg, hi := uint64(t)*chunk, uint64(t+1)*chunk
		if t == threads-1 {
			hi = mPages
		}
		return func() (uint64, bool, bool) {
			if pg >= hi {
				return 0, false, false
			}
			pg++
			return pg - 1, false, true
		}
	}
}
