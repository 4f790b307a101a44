// Command ycsb drives the YCSB workloads against either key-value store
// (the RocksDB-like LSM or the Kreon-like store) over any of the worlds:
//
//	ycsb -store lsm -engine aquila -device pmem -workload C -threads 8
//	ycsb -store kreon -engine kmmap -device nvme -workload A
//
// Throughput and latency are simulated-time measurements at the paper's
// 2.4 GHz testbed clock.
package main

import (
	"flag"
	"fmt"
	"os"

	"aquila"
	"aquila/internal/kvs/kreon"
	"aquila/internal/kvs/lsm"
	"aquila/internal/obs"
	"aquila/internal/obs/obscli"
	"aquila/internal/ycsb"
)

func main() {
	var (
		store    = flag.String("store", "lsm", "store: lsm (RocksDB-like) or kreon")
		engine   = flag.String("engine", "aquila", "world: aquila, mmap, direct, kmmap (kreon only)")
		device   = flag.String("device", "pmem", "device: pmem or nvme")
		workload = flag.String("workload", "C", "YCSB workload A-F")
		threads  = flag.Int("threads", 1, "client threads")
		records  = flag.Uint64("records", 20000, "dataset records (1 KB values)")
		ops      = flag.Uint64("ops", 5000, "operations per thread")
		cacheMB  = flag.Uint64("cache", 32, "DRAM cache size (MB)")
		dist     = flag.String("dist", "uniform", "distribution: uniform, zipfian, latest")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
		metricsJ = flag.String("metrics-json", "", "write a metrics registry snapshot (JSON) to this file")
	)
	flag.Parse()

	sinks := obscli.New(*traceOut, *metricsJ, false, false)
	reg := sinks.Registry

	dev := aquila.DevicePMem
	if *device == "nvme" {
		dev = aquila.DeviceNVMe
	}
	var mode aquila.Mode
	switch *engine {
	case "aquila":
		mode = aquila.ModeAquila
	case "mmap", "kmmap":
		mode = aquila.ModeLinuxMmap
	case "direct":
		mode = aquila.ModeLinuxDirect
	default:
		fmt.Fprintf(os.Stderr, "unknown engine %q\n", *engine)
		os.Exit(1)
	}
	distribution := ycsb.Uniform
	switch *dist {
	case "zipfian":
		distribution = ycsb.Zipfian
	case "latest":
		distribution = ycsb.Latest
	}
	w := ycsb.Workload((*workload)[0])

	cache := *cacheMB << 20
	sys := aquila.New(aquila.Options{
		Mode: mode, Device: dev, CacheBytes: cache, DeviceBytes: *records*4096 + 512<<20,
		Tracer: sinks.Tracer, Registry: reg,
	})
	defer sys.Close()

	var kv ycsb.KV
	sys.Do(func(p *aquila.Proc) {
		switch *store {
		case "lsm":
			lsmMode := lsm.IOMmap
			if mode == aquila.ModeLinuxDirect {
				lsmMode = lsm.IODirectCached
			}
			db := lsm.Open(p, sys.Sim, lsm.Options{
				NS: sys.NS, Mode: lsmMode, BlockCacheBytes: cache,
				DisableWAL: true, Seed: *seed,
			})
			db.BulkLoad(p, *records, 1000)
			kv = db
		case "kreon":
			var db *kreon.DB
			kopts := kreon.Options{LogBytes: *records*1100 + 16<<20, IndexBytes: *records*400 + 16<<20}
			if *engine == "kmmap" {
				f := sys.Host.FS.Create(p, "kreon.data",
					4096+kopts.LogBytes+kopts.IndexBytes)
				db = kreon.OpenWithMapping(p, kopts, sys.Host.MmapKmmap(p, f,
					4096+kopts.LogBytes+kopts.IndexBytes))
			} else {
				db = kreon.Open(p, kreon.Options{NS: sys.NS,
					LogBytes: kopts.LogBytes, IndexBytes: kopts.IndexBytes})
			}
			for i := uint64(0); i < *records; i++ {
				db.Put(p, ycsb.KeyBytes(i), ycsb.Value(i, 1000))
			}
			db.Msync(p)
			kv = db
		default:
			fmt.Fprintf(os.Stderr, "unknown store %q\n", *store)
			os.Exit(1)
		}
	})

	lats := make([]*obs.Histogram, *threads)
	var done uint64
	elapsed := sys.Run(*threads, func(t int, p *aquila.Proc) {
		g := ycsb.NewGenerator(ycsb.Config{
			Workload: w, Records: *records, ValueSize: 1000,
			Distribution: distribution, Seed: *seed + int64(t)*13,
		})
		res := ycsb.RunThread(p, kv, g, *ops)
		lats[t] = res.Lat
		done += res.Ops
	})
	all := obs.NewHistogram()
	for _, l := range lats {
		if l != nil {
			all.Merge(l)
		}
	}
	fmt.Printf("store=%s engine=%s device=%s workload=%c threads=%d\n",
		*store, *engine, *device, w, *threads)
	fmt.Printf("ops=%d  throughput=%.1f Kops/s  avg=%.2fus  p99=%.2fus  p99.9=%.2fus\n",
		done, aquila.ThroughputOpsPerSec(done, elapsed)/1e3,
		all.Mean()/2400, float64(all.P99())/2400, float64(all.P999())/2400)

	if reg != nil {
		wl := fmt.Sprintf("%c", w)
		reg.Histogram("ycsb_op_cycles",
			obs.L("workload", wl), obs.L("store", *store)).Merge(all)
		reg.Counter("ycsb_ops", obs.L("workload", wl)).Set(done)
		sys.PublishStats()
	}
	if _, err := sinks.Flush(os.Stdout, ""); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
