package harness

import (
	"fmt"

	"aquila"
	"aquila/internal/kvs/lsm"
	"aquila/internal/sim/cpu"
	"aquila/internal/ycsb"
)

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "RocksDB per-read cycle breakdown: user-space cache vs Aquila",
		Paper: "user-space cache: 65.4K total (device 4.8K, cache mgmt 45.2K = 13K syscalls + 32K lookups/evictions, get 15.3K); Aquila: I/O 3.9K, cache mgmt 17.5K, get 18.5K => 2.58x fewer cache-mgmt cycles, 40% higher throughput",
		Run:   runFig7,
	})
}

// fig7Measure carries the raw numbers of one fig7 run alongside the per-get
// component breakdown, so runFig7 can build the machine-readable report.
type fig7Measure struct {
	ops        uint64
	cycles     uint64
	breakDelta map[string]uint64 // LSM cycle breakdown, read phase only
}

// fig7Run executes single-threaded YCSB-C random reads over an out-of-memory
// dataset and returns the per-get breakdown.
func fig7Run(mode rocksMode, cache uint64, records uint64, ops int, seed int64) (map[string]float64, float64, fig7Measure) {
	sys := boot(aquila.Options{
		Mode: mode.mode, Device: aquila.DevicePMem,
		CacheBytes:  cache,
		DeviceBytes: records*1100*2 + 256*mib,
		CPUs:        8,
		Seed:        seed,
	})
	defer retire(sys.Sim)
	db := loadRocks(sys, mode.io, cache, records, 1000, seed)
	var thr float64
	var meas fig7Measure
	break0 := db.Break.Map()
	sys.Do(func(p *aquila.Proc) {
		g := ycsb.NewGenerator(ycsb.Config{
			Workload: ycsb.WorkloadC, Records: records, ValueSize: 1000, Seed: seed,
		})
		res := ycsb.RunThread(p, db, g, uint64(ops))
		thr = aquila.ThroughputOpsPerSec(res.Ops, res.Cycles)
		meas.ops, meas.cycles = res.Ops, res.Cycles
	})
	meas.breakDelta = subMap(db.Break.Map(), break0)

	gets := db.Gets
	if gets == 0 {
		gets = 1
	}
	out := map[string]float64{}
	costs := cpu.Default()
	switch mode.io {
	case lsm.IODirectCached:
		// Split the measured "io" (syscall+device) into device transfer
		// vs syscall/kernel software.
		ioTotal := db.Break.PerOp("io", gets)
		perRead := float64(costs.MemcpyNoSIMD(4096)) + 240
		reads := float64(db.Break.Count("io"))
		device := perRead * reads / float64(gets)
		out["device-io"] = device
		out["cache-mgmt"] = db.Break.PerOp("cache", gets) + (ioTotal - device)
		out["get"] = db.Break.PerOp("get", gets)
	case lsm.IOMmap:
		mmio := db.Break.PerOp("mmio", gets)
		var device float64
		if sys.RT != nil {
			device = float64(sys.RT.Break.Get("device-io")+sys.RT.Break.Get("writeback")) / float64(gets)
		} else {
			// Linux mmap: estimate the device share from major faults.
			perRead := float64(costs.MemcpyNoSIMD(4096)) + 240
			device = perRead * float64(sys.Host.Cache.Inserted) / float64(gets)
		}
		out["device-io"] = device
		out["cache-mgmt"] = mmio - device
		out["get"] = db.Break.PerOp("get", gets)
	}
	out["total"] = out["device-io"] + out["cache-mgmt"] + out["get"]
	return out, thr, meas
}

func runFig7(scale float64) []*Result {
	r := &Result{
		ID:     "fig7",
		Title:  "RocksDB read breakdown (cycles/op), 1 thread, pmem, dataset 4x cache",
		Header: []string{"component", "user-space cache", "Aquila", "ratio"},
	}
	cache := scaled(32*mib, scale, 8*mib)
	records := 4 * cache / sstBytesPerRecord(1000)
	ops := scaledN(6000, scale, 1000)

	rw, rwThr, _ := fig7Run(rocksModes[0], cache, records, ops, 99)
	aq, aqThr, aqMeas := fig7Run(rocksModes[2], cache, records, ops, 99)

	for _, c := range []string{"device-io", "cache-mgmt", "get", "total"} {
		r.AddRow(c, f2(rw[c]), f2(aq[c]), ratio(rw[c], aq[c]))
	}

	extra := map[string]float64{
		"throughput_user_cache_ops_per_sec": rwThr,
		"throughput_aquila_ops_per_sec":     aqThr,
		"throughput_gain":                   safeDiv(aqThr, rwThr),
		"cache_mgmt_ratio":                  safeDiv(rw["cache-mgmt"], aq["cache-mgmt"]),
	}
	for _, c := range []string{"device-io", "cache-mgmt", "get", "total"} {
		extra["user_cache_"+c+"_per_get"] = rw[c]
		extra["aquila_"+c+"_per_get"] = aq[c]
	}
	r.setReport(scale, aqMeas.ops, aqMeas.cycles, nil, aqMeas.breakDelta, aqMeas.cycles, map[string]string{
		"mode":    "aquila",
		"device":  "pmem",
		"cache":   fmt.Sprint(cache),
		"records": fmt.Sprint(records),
		"ops":     fmt.Sprint(ops),
		"threads": "1",
		"cpus":    "8",
		"seed":    "99",
	}, extra)
	r.AddNote("paper: cache mgmt 45.2K -> 17.5K = 2.58x fewer cycles; measured %s",
		ratio(rw["cache-mgmt"], aq["cache-mgmt"]))
	r.AddNote("paper: ~40%% higher end-to-end throughput; measured %s (%.1f vs %.1f Kops/s)",
		ratio(aqThr, rwThr), aqThr/1e3, rwThr/1e3)
	r.AddNote("paper: user-space cache management consumes ~69%% of read cycles; measured %.0f%%",
		100*rw["cache-mgmt"]/rw["total"])
	return []*Result{r}
}
