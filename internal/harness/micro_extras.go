package harness

import (
	"fmt"

	"aquila"
	"aquila/internal/sim/cpu"
	"aquila/internal/ycsb"
)

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Standard YCSB workloads",
		Paper: "Table 1",
		Run: func(scale float64) []*Result {
			r := &Result{ID: "table1", Title: "Standard YCSB Workloads",
				Header: []string{"workload", "mix"}}
			for _, w := range ycsb.All {
				r.AddRow(string(w), w.Mix())
			}
			return []*Result{r}
		},
	})
	register(Experiment{
		ID:    "memcpy",
		Title: "4 KB memcpy cost model (§3.3)",
		Paper: "non-SIMD ~2400 cycles; AVX2 streaming ~900 (+300 FPU save/restore) = 2x faster",
		Run:   runMemcpy,
	})
	register(Experiment{
		ID:    "ipi",
		Title: "Batched TLB shootdown amortization (§4.1)",
		Paper: "vmexit send raises an IPI from 298 to 2081 cycles; batching 512 pages amortizes it to ~4 cycles/page",
		Run:   runIPI,
	})
}

func runMemcpy(scale float64) []*Result {
	r := &Result{
		ID:     "memcpy",
		Title:  "Copy cost between DRAM cache and pmem (cycles)",
		Header: []string{"size", "non-SIMD", "AVX2 stream", "AVX2 + FPU save/restore", "speedup"},
	}
	for _, sz := range []int{4096, 8192, 65536} {
		plain := cpu.MemcpyNoSIMD(sz)
		avxOnly := uint64(sz) * cpu.Memcpy4KAVX2 / 4096
		avxFull := cpu.MemcpyAVX2(sz)
		r.AddRow(fmt.Sprintf("%dK", sz/1024), fmt.Sprint(plain), fmt.Sprint(avxOnly),
			fmt.Sprint(avxFull), ratio(float64(plain), float64(avxFull)))
	}
	r.AddNote("paper: 2400 vs 1200 cycles at 4 KB = 2x; FPU state save/restore ~300 cycles")
	return []*Result{r}
}

// runIPI measures the send-side cost per invalidated page for different
// shootdown batch sizes, with and without the vmexit-based rate limiting.
func runIPI(scale float64) []*Result {
	r := &Result{
		ID:     "ipi",
		Title:  "TLB shootdown send cost per page (31 target CPUs)",
		Header: []string{"batch pages", "posted (no vmexit)", "rate-limited (vmexit)", "cycles/page"},
	}
	const targets = 31
	for _, batch := range []int{1, 8, 64, 512} {
		posted := cpu.IPISendPosted + 100*targets
		limited := cpu.IPISendVMExit + 100*targets
		perPage := float64(limited) / float64(batch)
		r.AddRow(fmt.Sprint(batch), fmt.Sprint(posted), fmt.Sprint(limited), f2(perPage))
	}
	r.AddNote("paper: the vmexit send (2081 vs 298 cycles) is amortized over 512-page batches")

	// End-to-end check with the real machinery: shootdown batches during
	// Aquila eviction deliver IRQs to every other CPU.
	sys := boot(aquila.Options{
		Mode: aquila.ModeAquila, Device: aquila.DevicePMem,
		CacheBytes: 8 * mib, DeviceBytes: 160 * mib, CPUs: 8,
	})
	defer retire(sys.Sim)
	var m aquila.Mapping
	sys.Do(func(p *aquila.Proc) {
		m = mapFile(p, sys, "ipi-file", 64*mib, aquila.AdviceRandom)
		buf := make([]byte, 8)
		for off := uint64(0); off+8 < 64*mib; off += 4096 {
			m.Load(p, off, buf)
		}
	})
	batches := sys.RT.Stats.ShootdownBatches
	evictions := sys.RT.Stats.Evictions
	r.AddNote("end-to-end: %d evictions produced %d shootdown batches (%.0f pages/batch)",
		evictions, batches, float64(evictions)/float64(max(batches, 1)))
	return []*Result{r}
}
