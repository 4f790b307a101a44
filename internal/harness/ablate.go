package harness

import (
	"fmt"

	"aquila"
	"aquila/internal/core"
	"aquila/internal/host"
	"aquila/internal/obs"
	"aquila/internal/sim/device"
	simengine "aquila/internal/sim/engine"
)

// Ablation experiments for the design choices DESIGN.md calls out: eviction
// batch size (amortizing the rate-limited shootdown vmexit), the two-level
// freelist vs a single shared queue, madvise-driven readahead, and the
// io_uring async path the paper leaves as future work (§3.3, §7.1).

func init() {
	register(Experiment{
		ID:    "ablate-batch",
		Title: "Ablation: eviction/shootdown batch size (§3.2, §4.1)",
		Paper: "the 2081-cycle vmexit send is amortized over 512-page batches; small batches pay it per page",
		Run:   runAblateBatch,
	})
	register(Experiment{
		ID:    "ablate-freelist",
		Title: "Ablation: two-level freelist vs single shared queue (§3.2)",
		Paper: "per-core + per-NUMA queues with batched movement avoid allocator contention",
		Run:   runAblateFreelist,
	})
	register(Experiment{
		ID:    "ablate-readahead",
		Title: "Ablation: madvise-driven readahead for sequential scans (§3.2)",
		Paper: "read-ahead based on madvise improves sequential reads",
		Run:   runAblateReadahead,
	})
	register(Experiment{
		ID:    "iouring",
		Title: "Extension: io_uring async I/O vs synchronous direct I/O (§7.1 discussion)",
		Paper: "async batching raises throughput but increases tail latency vs synchronous I/O",
		Run:   runIOUring,
	})
}

// runAblateBatch sweeps Aquila's eviction batch size on the out-of-memory
// microbenchmark: smaller batches mean more shootdown vmexits per fault.
func runAblateBatch(scale float64) []*Result {
	r := &Result{
		ID:     "ablate-batch",
		Title:  "Out-of-memory fault throughput vs eviction batch (16 threads, pmem)",
		Header: []string{"evict batch", "Kops/s", "shootdown batches", "avg(us)"},
	}
	cache := scaled(16*mib, scale, 4*mib)
	for _, batch := range []int{8, 32, 128, 512} {
		params := core.ParamsForCache(cache)
		params.EvictBatch = batch
		sys := boot(aquila.Options{
			Mode: aquila.ModeAquila, Device: aquila.DevicePMem,
			CacheBytes: cache, DeviceBytes: cache*12 + 96*mib,
			CPUs: 32, Params: params,
		})
		res, _ := drive(sys, access{
			file: "ablate", dataset: cache * 12, threads: 16, advice: adviseRandom,
			stream: lcgStream(91, scaledN(3000, scale, 600), false),
		})
		r.AddRow(fmt.Sprint(batch), kops(res.ops, res.elapsed),
			fmt.Sprint(sys.RT.Stats.ShootdownBatches), usF(res.lat.Mean()))
		retire(sys.Sim)
	}
	r.AddNote("larger batches amortize the rate-limited IPI send and the per-batch bookkeeping")
	return []*Result{r}
}

// runAblateFreelist compares the two-level freelist against a single locked
// shared queue under a multithreaded eviction-heavy load.
func runAblateFreelist(scale float64) []*Result {
	r := &Result{
		ID:     "ablate-freelist",
		Title:  "Out-of-memory fault throughput: freelist design (32 threads, pmem)",
		Header: []string{"freelist", "Kops/s", "avg(us)", "p99.9(us)"},
	}
	cache := scaled(16*mib, scale, 4*mib)
	for _, single := range []bool{false, true} {
		name := "two-level per-core/per-NUMA"
		params := core.ParamsForCache(cache)
		if single {
			name = "single shared queue"
			params.SingleQueueFreelist = true
		}
		sys := boot(aquila.Options{
			Mode: aquila.ModeAquila, Device: aquila.DevicePMem,
			CacheBytes: cache, DeviceBytes: cache*12 + 96*mib,
			CPUs: 32, Params: params,
		})
		res, _ := drive(sys, access{
			file: "ablate", dataset: cache * 12, threads: 32, advice: adviseRandom,
			stream: lcgStream(93, scaledN(2000, scale, 500), false),
		})
		r.AddRow(name, kops(res.ops, res.elapsed), usF(res.lat.Mean()), us(res.lat.P999()))
		retire(sys.Sim)
	}
	r.AddNote("the single queue serializes every allocation and release (§3.2's motivation)")
	return []*Result{r}
}

// runAblateReadahead measures a sequential full-file scan with and without
// madvise(SEQUENTIAL) under Aquila.
func runAblateReadahead(scale float64) []*Result {
	r := &Result{
		ID:     "ablate-readahead",
		Title:  "Sequential scan over Aquila mmio (pmem), 1 thread",
		Header: []string{"madvise", "scan time(ms)", "major faults", "readahead pages"},
	}
	size := scaled(48*mib, scale, 8*mib)
	for _, seq := range []bool{false, true} {
		sys := boot(aquila.Options{
			Mode: aquila.ModeAquila, Device: aquila.DeviceNVMe,
			CacheBytes: size / 4, DeviceBytes: size + 96*mib,
			CPUs: 8,
		})
		var elapsed uint64
		sys.Do(func(p *aquila.Proc) {
			m := mapFile(p, sys, "scanfile", size)
			if seq {
				m.Advise(p, aquila.AdviceSequential)
			}
			start := p.Now()
			buf := make([]byte, 4096)
			for off := uint64(0); off+4096 <= size; off += 4096 {
				m.Load(p, off, buf)
			}
			elapsed = p.Now() - start
		})
		name := "none"
		if seq {
			name = "MADV_SEQUENTIAL"
		}
		r.AddRow(name, fmt.Sprintf("%.2f", float64(elapsed)/2.4e6),
			fmt.Sprint(sys.RT.Stats.MajorFaults), fmt.Sprint(sys.RT.Stats.ReadaheadPages))
		retire(sys.Sim)
	}
	r.AddNote("readahead merges device reads into multi-page I/Os and overlaps faults")
	return []*Result{r}
}

// runIOUring compares synchronous O_DIRECT reads with io_uring batches of
// increasing depth — the async-I/O tradeoff the paper discusses in §7.1.
func runIOUring(scale float64) []*Result {
	r := &Result{
		ID:     "iouring",
		Title:  "Random 4 KB reads, NVMe: sync pread vs io_uring batches (1 thread)",
		Header: []string{"path", "Kops/s", "avg(us)", "p99.9(us)", "syscalls/op"},
	}
	n := scaledN(4000, scale, 800)
	pages := uint64(256 * mib / 4096)
	// Each path gets a fresh world: simulated time restarts per phase, so
	// sharing a device would queue later phases behind earlier backlogs.
	newWorld := func() (*simengine.Engine, *host.OS, *host.FSFile) {
		nv := device.NewNVMe(1<<30, device.DefaultNVMeConfig())
		e := bootEngine(simengine.Config{NumCPUs: 4, Seed: 97}, "iouring", nv.Store)
		os := host.NewOS(e, host.NewNVMeDisk("nvme0", nv), 64*mib)
		var f *host.FSFile
		e.Spawn(0, "setup", func(p *aquila.Proc) {
			f = os.FS.Create(p, "data", 256*mib)
		})
		e.Run()
		return e, os, f
	}

	// Synchronous O_DIRECT.
	{
		e, os, f := newWorld()
		lat := obs.NewHistogram()
		var elapsed uint64
		e.Spawn(0, "sync", func(p *aquila.Proc) {
			hf := os.OpenFile(f, true)
			buf := make([]byte, 4096)
			x := uint64(1)
			start := p.Now()
			for i := 0; i < n; i++ {
				x = x*6364136223846793005 + 1
				t0 := p.Now()
				hf.Pread(p, buf, (x>>17)%pages*4096)
				lat.Record(p.Now() - t0)
			}
			elapsed = p.Now() - start
		})
		e.Run()
		r.AddRow("sync O_DIRECT", kops(uint64(n), elapsed), usF(lat.Mean()),
			us(lat.P999()), "1.00")
		retire(e)
	}
	// io_uring at several batch depths.
	for _, depth := range []int{8, 32, 128} {
		e, os, f := newWorld()
		lat := obs.NewHistogram()
		var elapsed uint64
		var syscalls uint64
		e.Spawn(0, fmt.Sprintf("uring-%d", depth), func(p *aquila.Proc) {
			ring := host.NewIOURing(os, f, 2*depth)
			x := uint64(7)
			start := p.Now()
			remaining := n
			for remaining > 0 {
				batch := depth
				if batch > remaining {
					batch = remaining
				}
				issued := p.Now()
				for j := 0; j < batch; j++ {
					x = x*6364136223846793005 + 1
					ring.Prep(host.Sqe{
						Off: (x >> 17) % pages * 4096,
						Buf: make([]byte, 4096), UserData: uint64(j),
					})
				}
				ring.Enter(p)
				cqes := ring.WaitCqes(p, batch)
				for _, c := range cqes {
					// Per-op latency: from batch issue to completion.
					lat.Record(c.DoneAt - issued)
				}
				remaining -= batch
			}
			elapsed = p.Now() - start
			syscalls = ring.SyscallOps
		})
		e.Run()
		r.AddRow(fmt.Sprintf("io_uring depth %d", depth), kops(uint64(n), elapsed),
			usF(lat.Mean()), us(lat.P999()),
			fmt.Sprintf("%.3f", float64(syscalls)/float64(n)))
		retire(e)
	}
	r.AddNote("paper §7.1: async I/O raises throughput via batching but inflates tail latency and is harder to program")
	return []*Result{r}
}
