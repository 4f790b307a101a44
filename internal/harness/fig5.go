package harness

import (
	"fmt"

	"aquila"
	"aquila/internal/core"
	"aquila/internal/kvs/lsm"
	"aquila/internal/obs"
	"aquila/internal/ycsb"
)

func init() {
	register(Experiment{
		ID:    "fig5a",
		Title: "RocksDB YCSB-C throughput, dataset fits in memory",
		Paper: "mmap beats read/write in-memory; Aquila up to 1.15x over Linux mmap",
		Run: func(scale float64) []*Result {
			return runFig5(scale, true)
		},
	})
	register(Experiment{
		ID:    "fig5b",
		Title: "RocksDB YCSB-C throughput, dataset 4x the cache",
		Paper: "Linux mmap collapses (128 KB read-around for 1 KB reads); Aquila vs direct I/O: pmem 1.18x@1T -> 1.65x@32T, NVMe ~parity (device-bound)",
		Run: func(scale float64) []*Result {
			return runFig5(scale, false)
		},
	})
}

// rocksMode is one RocksDB configuration of §6.1.
type rocksMode struct {
	name string
	mode aquila.Mode
	io   lsm.IOMode
}

var rocksModes = []rocksMode{
	{"read/write", aquila.ModeLinuxDirect, lsm.IODirectCached},
	{"mmap", aquila.ModeLinuxMmap, lsm.IOMmap},
	{"aquila", aquila.ModeAquila, lsm.IOMmap},
}

// rocksOut is one rocksRunX measurement plus the Aquila-only reclaim telemetry
// fig5b's machine-readable report needs.
type rocksOut struct {
	ops     uint64
	elapsed uint64
	lat     *obs.Histogram
	// breakDelta is the runtime's fault-cycle breakdown accumulated during
	// the measured phase only (nil in the Linux modes).
	breakDelta map[string]uint64
	// stats snapshots the runtime counters after the measured phase (zero in
	// the Linux modes).
	stats core.Stats
}

// rocksRunX loads a RocksDB-like store and drives YCSB-C over it. mut, when
// non-nil, adjusts the Aquila runtime parameters (fig5b uses it to switch on
// the background evictor).
func rocksRunX(mode rocksMode, dev aquila.DeviceKind, cache uint64, records uint64,
	valueSize, threads, opsPerThread int, seed int64, mut func(*core.Params)) rocksOut {
	dataset := records * sstBytesPerRecord(valueSize)
	opts := aquila.Options{
		Mode: mode.mode, Device: dev,
		CacheBytes:  cache,
		DeviceBytes: dataset*2 + 256*mib,
		CPUs:        32,
	}
	if mode.mode == aquila.ModeAquila && mut != nil {
		opts.Params = core.ParamsForCache(cache)
		mut(opts.Params)
	}
	sys := boot(opts)
	defer retire(sys.Sim)
	db := loadRocks(sys, mode.io, cache, records, valueSize, seed)
	// Warmup: one sequential pass over all records, so caches and PTEs
	// reach steady state before measurement (as the paper's runs do).
	sys.Do(func(p *aquila.Proc) {
		var key []byte
		for id := uint64(0); id < records; id++ {
			key = ycsb.AppendKey(key[:0], id)
			db.Get(p, key)
		}
	})
	var break0 map[string]uint64
	if sys.RT != nil {
		break0 = sys.RT.Break.Map()
	}
	lats := make([]*obs.Histogram, threads)
	var ops uint64
	elapsed := sys.Run(threads, func(t int, p *aquila.Proc) {
		g := ycsb.NewGenerator(ycsb.Config{
			Workload: ycsb.WorkloadC, Records: records,
			ValueSize: valueSize, Seed: seed + int64(t)*31,
		})
		res := ycsb.RunThread(p, db, g, uint64(opsPerThread))
		lats[t] = res.Lat
		ops += res.Ops
	})
	out := rocksOut{ops: ops, elapsed: elapsed, lat: mergeHists(lats)}
	if sys.RT != nil {
		out.breakDelta = subMap(sys.RT.Break.Map(), break0)
		out.stats = sys.RT.Stats
	}
	return out
}

// loadRocks opens a RocksDB-like store in sys and bulk-loads records into it.
// The store reports its cycle breakdown into the world's registry.
func loadRocks(sys *aquila.System, io lsm.IOMode, cache, records uint64, valueSize int, seed int64) *lsm.DB {
	var db *lsm.DB
	sys.Do(func(p *aquila.Proc) {
		db = lsm.Open(p, sys.Sim, lsm.Options{
			NS:              sys.NS,
			Mode:            io,
			BlockCacheBytes: cache, // same DRAM budget as the page caches
			SSTTargetBytes:  int(min(8*mib, cache/2)),
			DisableWAL:      true,
			Seed:            seed,
		})
		db.BulkLoad(p, records, valueSize)
	})
	return db
}

// sstBytesPerRecord is the on-disk footprint of one record including block
// padding (records never straddle 4 KB blocks).
func sstBytesPerRecord(valueSize int) uint64 {
	entry := 4 + 30 + valueSize
	perBlock := 4096 / entry
	if perBlock == 0 {
		perBlock = 1
	}
	return uint64(4096 / perBlock)
}

func runFig5(scale float64, inMemory bool) []*Result {
	id, title := "fig5a", "dataset fits in the cache"
	if !inMemory {
		id, title = "fig5b", "dataset 4x the cache"
	}
	r := &Result{
		ID:    id,
		Title: "RocksDB YCSB-C (uniform, 1 KB values), " + title,
		Header: []string{"device", "threads", "mode", "Kops/s", "avg(us)", "p99.9(us)",
			"vs read/write"},
	}
	cache := scaled(48*mib, scale, 8*mib)
	valueSize := 1000
	perRecord := sstBytesPerRecord(valueSize)
	var records uint64
	if inMemory {
		// ~80% of the cache: the dataset plus table metadata fits with
		// headroom, as in the paper's 8 GB dataset / 8 GB cgroup setup.
		records = cache * 8 / 10 / perRecord
	} else {
		records = 4 * cache / perRecord
	}
	ops := scaledN(2500, scale, 400)
	threadCounts := []int{1, 8, 32}
	if scale < 0.5 {
		threadCounts = []int{1, 8}
	}
	lastThreads := threadCounts[len(threadCounts)-1]
	syncAq := map[aquila.DeviceKind]rocksOut{}
	for _, dev := range []aquila.DeviceKind{aquila.DeviceNVMe, aquila.DevicePMem} {
		devName := devLabel[dev]
		for _, threads := range threadCounts {
			base := map[string]float64{}
			for _, m := range rocksModes {
				o := rocksRunX(m, dev, cache, records,
					valueSize, threads, ops, 77, nil)
				thr := aquila.ThroughputOpsPerSec(o.ops, o.elapsed) / 1e3
				if m.name == "read/write" {
					base[devName] = thr
				}
				r.AddRow(devName, fmt.Sprint(threads), m.name,
					fmt.Sprintf("%.1f", thr), usF(o.lat.Mean()), us(o.lat.P999()),
					ratio(thr, base[devName]))
				if !inMemory && m.name == "aquila" && threads == lastThreads {
					syncAq[dev] = o
				}
			}
		}
	}
	if inMemory {
		r.AddNote("paper: in-memory, mmap > read/write; Aquila up to 1.15x over mmap")
		r.AddNote("paper latency (NVMe): Aquila 1.28-1.39x lower avg than direct I/O; tail 3.88x lower on average")
	} else {
		addFig5bAsync(r, scale, cache, records, valueSize, lastThreads, ops, syncAq)
		r.AddNote("paper: mmap performs poorly out-of-memory; Aquila/direct-IO = 1.18x@1T, 1.65x@32T on pmem; 0.96-1.06x on NVMe (device-bound)")
		r.AddNote("paper tail latency out-of-memory: Aquila 1.26x lower on average")
	}
	return []*Result{r}
}

// addFig5bAsync appends the background-evictor comparison to the fig5b table
// and attaches the machine-readable report: the same out-of-memory Aquila
// configuration rerun with AsyncEvict=true, so reclaim moves off the fault
// path onto the per-NUMA bg-evict daemons and writeback overlaps with
// foreground faults.
func addFig5bAsync(r *Result, scale float64, cache, records uint64,
	valueSize, threads, ops int, syncAq map[aquila.DeviceKind]rocksOut) {
	aqMode := rocksModes[len(rocksModes)-1]
	for _, dev := range []aquila.DeviceKind{aquila.DeviceNVMe, aquila.DevicePMem} {
		sync := syncAq[dev]
		async := rocksRunX(aqMode, dev, cache, records, valueSize, threads, ops, 77,
			func(ps *core.Params) { ps.AsyncEvict = true })
		syncThr := aquila.ThroughputOpsPerSec(sync.ops, sync.elapsed) / 1e3
		asyncThr := aquila.ThroughputOpsPerSec(async.ops, async.elapsed) / 1e3
		r.AddRow(devLabel[dev], fmt.Sprint(threads), "aquila+bg-evict",
			fmt.Sprintf("%.1f", asyncThr), usF(async.lat.Mean()), us(async.lat.P999()),
			ratio(asyncThr, syncThr))
		if dev != aquila.DeviceNVMe {
			continue
		}
		// The checked-in BENCH_fig5b.json report tracks the NVMe run, where
		// overlapping writeback with foreground faults hides real device
		// latency. (On saturated pmem, reclaim is pure memcpy and N inline
		// reclaimers outrun the per-NUMA daemons — that tradeoff is the
		// ablate-async-evict experiment's story.)
		bd := async.breakDelta
		if bd == nil {
			bd = map[string]uint64{}
		}
		// The reclaim split must always be present, even when one side is
		// zero, so trajectory diffs never lose the column.
		for _, k := range []string{"direct_reclaim", "bg_reclaim"} {
			if _, ok := bd[k]; !ok {
				bd[k] = 0
			}
		}
		r.setReport(scale, async.ops, async.elapsed, async.lat, bd, async.lat.Sum(), map[string]string{
			"workload":       "YCSB-C uniform, 1 KB values",
			"device":         "NVMe",
			"threads":        fmt.Sprint(threads),
			"cache":          fmt.Sprint(cache),
			"records":        fmt.Sprint(records),
			"ops_per_thread": fmt.Sprint(ops),
			"seed":           "77",
			"async_evict":    "true",
		}, map[string]float64{
			"sync_kops":                  syncThr,
			"async_kops":                 asyncThr,
			"async_over_sync_throughput": safeDiv(asyncThr, syncThr),
			"sync_avg_cycles":            sync.lat.Mean(),
			"async_avg_cycles":           async.lat.Mean(),
			"sync_over_async_avg":        safeDiv(sync.lat.Mean(), async.lat.Mean()),
			"sync_p999_cycles":           float64(sync.lat.P999()),
			"async_p999_cycles":          float64(async.lat.P999()),
			"direct_reclaim_pages":       float64(async.stats.DirectReclaimPages),
			"bg_reclaim_pages":           float64(async.stats.BgReclaimPages),
			"evict_stalls":               float64(async.stats.EvictStalls),
			"sync_direct_reclaim_pages":  float64(sync.stats.DirectReclaimPages),
		})
	}
	r.AddNote("aquila+bg-evict: AsyncEvict=true (per-NUMA background evictor, overlapped writeback); its ratio column is vs sync aquila at %d threads", threads)
}
