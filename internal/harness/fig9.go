package harness

import (
	"fmt"

	"aquila"
	"aquila/internal/kvs/kreon"
	"aquila/internal/ycsb"
)

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Kreon over kmmap vs Aquila, all YCSB workloads, 1 thread, dataset 2x cache",
		Paper: "NVMe: 1.02x throughput, 1.29x lower avg latency, 3.78x lower p99.9; pmem: 1.22x throughput, 1.43x avg, 13.72x p99.9",
		Run:   runFig9,
	})
}

// kreonLayout sizes a Kreon store for records of about logPerRecord log bytes
// each (index: four 80-byte entries per record; slack on both regions) and
// returns the world, the store options and the store file's size.
func kreonLayout(mode aquila.Mode, dev aquila.DeviceKind, cache, records, logPerRecord, slack uint64,
	seed int64) (aquila.Options, kreon.Options, uint64) {
	logBytes := records*logPerRecord + slack
	idxBytes := records*80*4 + slack
	return aquila.Options{
			Mode: mode, Device: dev,
			CacheBytes:  cache,
			DeviceBytes: logBytes + idxBytes + 64*mib,
			CPUs:        8, Seed: seed,
		}, kreon.Options{
			LogBytes: logBytes, IndexBytes: idxBytes,
			L0Entries: int(records)/3 + 1,
		}, 4096 + logBytes + idxBytes
}

// kreonOpen creates the store file, maps it through the world's mmio path
// with MADV_RANDOM, and opens a fresh Kreon store over the mapping.
func kreonOpen(p *aquila.Proc, sys *aquila.System, kopts kreon.Options, size uint64) *kreon.DB {
	return kreon.OpenWithMapping(p, kopts, mapFile(p, sys, "kreon.data", size, aquila.AdviceRandom))
}

// kreonRun loads a Kreon store over one mmio path and runs a YCSB workload.
func kreonRun(useAquila bool, dev aquila.DeviceKind, cache uint64,
	records uint64, w ycsb.Workload, ops int, seed int64) ycsb.Result {
	mode := aquila.ModeLinuxMmap
	if useAquila {
		mode = aquila.ModeAquila
	}
	opts, kopts, size := kreonLayout(mode, dev, cache, records, 1100, 8*mib, seed)
	sys := boot(opts)
	defer retire(sys.Sim)
	var db *kreon.DB
	sys.Do(func(p *aquila.Proc) {
		if useAquila {
			db = kreonOpen(p, sys, kopts, size)
		} else {
			// kmmap: Kreon's custom in-kernel mmio path.
			f := sys.Host.FS.Create(p, "kreon.data", size)
			m := sys.Host.MmapKmmap(p, f, size)
			db = kreon.OpenWithMapping(p, kopts, m)
		}
		var key, val []byte
		for i := uint64(0); i < records; i++ {
			key, val = ycsb.AppendKey(key[:0], i), ycsb.AppendValue(val[:0], i, 1000)
			db.Put(p, key, val)
		}
		db.Msync(p)
	})
	var res ycsb.Result
	sys.Do(func(p *aquila.Proc) {
		g := ycsb.NewGenerator(ycsb.Config{
			Workload: w, Records: records, ValueSize: 1000, Seed: seed + 5,
		})
		res = ycsb.RunThread(p, db, g, uint64(ops))
	})
	return res
}

func runFig9(scale float64) []*Result {
	r := &Result{
		ID:    "fig9",
		Title: "Kreon: kmmap vs Aquila, 1 thread, dataset 2x cache",
		Header: []string{"device", "workload", "kmmap Kops/s", "Aquila Kops/s", "thr ratio",
			"avg ratio", "p99.9 ratio"},
	}
	cache := scaled(12*mib, scale, 4*mib)
	records := 2 * cache / 1100
	ops := scaledN(2000, scale, 400)
	workloads := ycsb.All
	if scale < 0.3 {
		workloads = []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadC}
	}
	for _, dev := range []aquila.DeviceKind{aquila.DeviceNVMe, aquila.DevicePMem} {
		devName := devLabel[dev]
		var sumThr, sumAvg, sumTail float64
		n := 0
		for _, w := range workloads {
			km := kreonRun(false, dev, cache, records, w, ops, 61)
			aq := kreonRun(true, dev, cache, records, w, ops, 61)
			kThr := aquila.ThroughputOpsPerSec(km.Ops, km.Cycles) / 1e3
			aThr := aquila.ThroughputOpsPerSec(aq.Ops, aq.Cycles) / 1e3
			r.AddRow(devName, string(w),
				fmt.Sprintf("%.1f", kThr), fmt.Sprintf("%.1f", aThr),
				ratio(aThr, kThr),
				ratio(km.Lat.Mean(), aq.Lat.Mean()),
				ratio(float64(km.Lat.P999()), float64(aq.Lat.P999())))
			sumThr += aThr / kThr
			sumAvg += km.Lat.Mean() / aq.Lat.Mean()
			sumTail += float64(km.Lat.P999()) / float64(aq.Lat.P999())
			n++
		}
		r.AddNote("%s averages: throughput %.2fx, avg latency %.2fx, p99.9 %.2fx (paper: %s)",
			devName, sumThr/float64(n), sumAvg/float64(n), sumTail/float64(n),
			map[string]string{
				"NVMe": "1.02x thr, 1.29x avg, 3.78x tail",
				"pmem": "1.22x thr, 1.43x avg, 13.72x tail",
			}[devName])
	}
	return []*Result{r}
}
