package harness

import (
	"fmt"

	"aquila"
	"aquila/internal/core"
)

// Fault-injection ablation: the out-of-memory mixed workload of
// ablate-async-evict with background eviction on, sweeping the probability of
// transient device write errors. Failed writebacks retry with bounded backoff
// and requeue, so no page is ever lost; the cost surfaces as extra device
// time and io-retry waits, and persistently failing batches push the daemons
// back to synchronous writeback.

func init() {
	register(Experiment{
		ID:    "ablate-faults",
		Title: "Ablation: transient device write faults under background eviction",
		Paper: "end-to-end error propagation (errseq msync, writeback retry/quarantine) hardens §3.2's reclaim pipeline",
		Run:   runAblateFaults,
	})
}

func runAblateFaults(scale float64) []*Result {
	r := &Result{
		ID:    "ablate-faults",
		Title: "Out-of-memory mixed 2:1 microbench (16 threads) with injected transient write faults",
		Header: []string{"device", "P(wr fault)", "Kops/s", "avg(us)", "injected",
			"retries", "requeued", "quarantined", "sync-fallback", "msync"},
	}
	cache := scaled(16*mib, scale, 4*mib)
	ops := scaledN(2500, scale, 500)

	for _, dev := range []aquila.DeviceKind{aquila.DevicePMem, aquila.DeviceNVMe} {
		for _, prob := range []float64{0, 0.001, 0.01, 0.05} {
			params := core.ParamsForCache(cache)
			params.AsyncEvict = true
			sys := boot(aquila.Options{
				Mode: aquila.ModeAquila, Device: dev,
				CacheBytes: cache, DeviceBytes: cache*12 + 96*mib,
				CPUs: 32, Seed: 99, Params: params,
			})
			if prob > 0 {
				sys.InjectFaults(&aquila.FaultPlan{Seed: 42, Rules: []aquila.FaultRule{
					{Kind: aquila.FaultTransientWrite, Prob: prob},
				}})
			}
			res, maps := drive(sys, access{
				file: "faults", dataset: cache * 12, threads: 16, advice: adviseRandom,
				stream: lcgStream(99, ops, true),
			})
			// A final msync from the main thread: its errseq-checked result
			// is the table's last column.
			msyncCell := "ok"
			sys.Do(func(p *aquila.Proc) {
				if maps[0].Msync(p) != nil {
					msyncCell = "EIO"
				}
			})
			st := sys.RT.Stats
			r.AddRow(devLabel[dev], fmt.Sprintf("%g", prob), kops(res.ops, res.elapsed),
				usF(res.lat.Mean()), fmt.Sprint(sys.InjectedFaults()),
				fmt.Sprint(st.IORetries), fmt.Sprint(st.RequeuedPages),
				fmt.Sprint(st.QuarantinedPages), fmt.Sprint(st.SyncWritebackFallbacks),
				msyncCell)
			retire(sys.Sim)
		}
	}
	r.AddNote("transient write errors retry in place with linear backoff (3 retries, 20 Kcycle steps); pages that exhaust their retries are requeued dirty, so no page is ever dropped")
	r.AddNote("the final msync reports an error (errseq, once per caller) only if a page failed all retries during that very call; requeued pages normally succeed on the next pass")
	return []*Result{r}
}
