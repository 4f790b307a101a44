package harness

import (
	"fmt"

	"aquila"
	"aquila/internal/core"
)

// Ablation for the background-eviction pipeline: the same out-of-memory
// mixed workload under synchronous direct reclaim (every faulting thread pays
// victim selection, shootdown and writeback inline) vs the watermark-driven
// per-NUMA evictor daemons, sweeping the low watermark.

func init() {
	register(Experiment{
		ID:    "ablate-async-evict",
		Title: "Ablation: background eviction & overlapped writeback vs sync reclaim (§3.2)",
		Paper: "kswapd-style watermark reclaim moves select+shootdown+writeback off the fault path",
		Run:   runAblateAsyncEvict,
	})
}

func runAblateAsyncEvict(scale float64) []*Result {
	r := &Result{
		ID:    "ablate-async-evict",
		Title: "Out-of-memory mixed 2:1 read/write microbench (16 threads): reclaim policy",
		Header: []string{"device", "reclaim", "low/high wm", "Kops/s", "avg(us)",
			"p99.9(us)", "direct pages", "bg pages", "stalls"},
	}
	cache := scaled(16*mib, scale, 4*mib)
	ops := scaledN(2500, scale, 500)
	batch := core.ParamsForCache(cache).EvictBatch

	type cfg struct {
		name string
		mut  func(ps *core.Params)
	}
	cfgs := []cfg{
		{"sync (direct)", nil},
		{"async default wm", func(ps *core.Params) { ps.AsyncEvict = true }},
	}
	for _, mult := range []int{1, 2, 4} {
		low := mult * batch
		cfgs = append(cfgs, cfg{
			name: fmt.Sprintf("async low=%dx batch", mult),
			mut: func(ps *core.Params) {
				ps.AsyncEvict = true
				ps.LowWatermark = low
				ps.HighWatermark = 3 * low
			},
		})
	}

	for _, dev := range []aquila.DeviceKind{aquila.DevicePMem, aquila.DeviceNVMe} {
		for _, c := range cfgs {
			params := core.ParamsForCache(cache)
			if c.mut != nil {
				c.mut(params)
			}
			sys := boot(aquila.Options{
				Mode: aquila.ModeAquila, Device: dev,
				CacheBytes: cache, DeviceBytes: cache*12 + 96*mib,
				CPUs: 32, Params: params,
			})
			res, _ := drive(sys, access{
				file: "async-evict", dataset: cache * 12, threads: 16, advice: adviseRandom,
				stream: lcgStream(99, ops, true),
			})
			st := sys.RT.Stats
			wm := "—"
			if params.AsyncEvict {
				wm = fmt.Sprintf("%d/%d", sys.RT.LowWater(), sys.RT.HighWater())
			}
			r.AddRow(devLabel[dev], c.name, wm, kops(res.ops, res.elapsed),
				usF(res.lat.Mean()), us(res.lat.P999()),
				fmt.Sprint(st.DirectReclaimPages), fmt.Sprint(st.BgReclaimPages),
				fmt.Sprint(st.EvictStalls))
			retire(sys.Sim)
		}
	}
	r.AddNote("sync: every eviction runs inline in a faulting thread (counted as direct pages)")
	r.AddNote("async: per-NUMA bg-evict daemons refill the freelist between the watermarks; direct reclaim remains only as the fallback when they fall behind")
	return []*Result{r}
}
