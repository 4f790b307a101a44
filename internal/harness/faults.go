package harness

import (
	"fmt"

	"aquila"
	"aquila/internal/obs"
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

// mixedFaultRun is mixedOverSystem plus a final Msync from the main thread,
// whose errseq-checked result the caller inspects.
func mixedFaultRun(sys *aquila.System, dataset uint64, threads, opsPerThread int, seed int64) (microResult, error) {
	var m aquila.Mapping
	sys.Do(func(p *aquila.Proc) {
		f := sys.NS.Create(p, "faults", dataset)
		m = sys.NS.Mmap(p, f, dataset)
		m.Advise(p, aquila.AdviceRandom)
	})
	lats := make([]*obs.Histogram, threads)
	var ops uint64
	elapsed := sys.Run(threads, func(t int, p *aquila.Proc) {
		lat := obs.NewHistogram()
		lats[t] = lat
		pages := m.Size() / 4096
		buf := make([]byte, 8)
		x := uint64(seed + int64(t)*2654435761)
		for i := 0; i < opsPerThread; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			pg := (x >> 17) % pages
			t0 := p.Now()
			if i%3 == 0 {
				m.Store(p, pg*4096, buf)
			} else {
				m.Load(p, pg*4096, buf)
			}
			lat.Record(p.Now() - t0)
		}
		ops += uint64(opsPerThread)
	})
	var msyncErr error
	sys.Do(func(p *aquila.Proc) { msyncErr = m.Msync(p) })
	return microResult{ops: ops, elapsed: elapsed, lat: mergeHists(lats), sys: sys}, msyncErr
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
		devName := "pmem"
		if dev == aquila.DeviceNVMe {
			devName = "NVMe"
		}
		for _, prob := range []float64{0, 0.001, 0.01, 0.05} {
			params := aquilaParams(cache)
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
			res, msyncErr := mixedFaultRun(sys, cache*12, 16, ops, 99)
			st := sys.RT.Stats
			msyncCell := "ok"
			if msyncErr != nil {
				msyncCell = "EIO"
			}
			r.AddRow(devName, fmt.Sprintf("%g", prob), kops(res.ops, res.elapsed),
				usF(res.lat.Mean()), fmt.Sprint(sys.InjectedFaults()),
				fmt.Sprint(st.IORetries), fmt.Sprint(st.RequeuedPages),
				fmt.Sprint(st.QuarantinedPages), fmt.Sprint(st.SyncWritebackFallbacks),
				msyncCell)
		}
	}
	r.AddNote("transient write errors retry in place with linear backoff (3 retries, 20 Kcycle steps); pages that exhaust their retries are requeued dirty, so no page is ever dropped")
	r.AddNote("the final msync reports an error (errseq, once per caller) only if a page failed all retries during that very call; requeued pages normally succeed on the next pass")
	return []*Result{r}
}
