// kvstore: run the RocksDB-like LSM key-value store over three I/O paths —
// Linux direct I/O + user-space cache, Linux mmap, and Aquila mmio — and
// compare YCSB-C throughput, the comparison of the paper's Figure 5.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"

	"aquila"
	"aquila/internal/kvs/lsm"
	"aquila/internal/ycsb"
)

func run(name string, mode aquila.Mode, io lsm.IOMode) {
	const (
		cache   = 32 << 20
		records = 20000
		ops     = 4000
	)
	sys := aquila.New(aquila.Options{
		Mode: mode, Device: aquila.DevicePMem,
		CacheBytes: cache, DeviceBytes: 512 << 20,
	})
	defer sys.Close()
	var db *lsm.DB
	sys.Do(func(p *aquila.Proc) {
		db = lsm.Open(p, sys.Sim, lsm.Options{
			NS: sys.NS, Mode: io, BlockCacheBytes: cache, DisableWAL: true,
		})
		db.BulkLoad(p, records, 1000)
	})
	// Warm to steady state (caches, PTEs) before measuring, as the paper's
	// runs do.
	sys.Do(func(p *aquila.Proc) {
		for id := uint64(0); id < records; id++ {
			db.Get(p, ycsb.KeyBytes(id))
		}
	})
	var done uint64
	elapsed := sys.Run(4, func(t int, p *aquila.Proc) {
		g := ycsb.NewGenerator(ycsb.Config{
			Workload: ycsb.WorkloadC, Records: records, ValueSize: 1000,
			Seed: int64(t) + 1,
		})
		res := ycsb.RunThread(p, db, g, ops)
		done += res.Ops
	})
	fmt.Printf("%-22s %8.1f Kops/s  (4 threads, YCSB-C, 1 KB values)\n",
		name, aquila.ThroughputOpsPerSec(done, elapsed)/1e3)
}

func main() {
	run("read/write + cache", aquila.ModeLinuxDirect, lsm.IODirectCached)
	run("Linux mmap", aquila.ModeLinuxMmap, lsm.IOMmap)
	run("Aquila mmio", aquila.ModeAquila, lsm.IOMmap)
}
