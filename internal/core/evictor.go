package core

import (
	"fmt"

	"aquila/internal/sim/engine"
)

// Background eviction (Params.AsyncEvict): one ring-0 daemon per NUMA node
// reclaims frames between the low and high freelist watermarks, keeping
// victim selection, batched shootdowns and writeback off the fault path.
// Writeback overlaps: engines that overlap (IOEngine.overlaps) accept all merged
// runs up front (io_uring-style submission, modeled on internal/host/iouring)
// and writeBack drains the queue with a single wait on the last completion.
// Faulting procs fall back to synchronous direct reclaim only when the
// freelist is empty and every daemon is asleep or out of budget.

// evictorEmptyRounds is how many consecutive empty selection rounds (every
// candidate pinned or in flight) a daemon tolerates — each followed by one
// throttled wait — before going back to sleep until the next kick.
const evictorEmptyRounds = 8

// bgSyncFallbackAfter is how many consecutive batches with writeback
// failures a daemon tolerates before abandoning overlapped submission for
// fully synchronous writeback (inline retry/recovery per run); one clean
// batch switches back.
const bgSyncFallbackAfter = 2

type bgEvictor struct {
	rt   *Runtime
	wake *engine.Signal
	// idle is true while the daemon is parked on wake (or about to park);
	// kickers only Set the signal for idle daemons, and allocations only
	// throttle-wait while some daemon is not idle.
	idle bool
	// failStreak counts consecutive reclaim batches that hit a final
	// writeback failure; at bgSyncFallbackAfter the daemon stops overlapping.
	failStreak int
}

// setWatermarks derives the reclaim watermarks from the params and the
// current cache size (re-derived on every resize). Explicitly configured
// watermarks that do not fit the cache are a caller bug and panic: clamping
// them would run a parameter sweep on values it did not ask for.
func (rt *Runtime) setWatermarks() {
	limit := int(rt.limitPages)
	if err := checkWatermarkBounds(rt.P, limit); err != nil {
		panic("core: bad eviction watermarks: " + err.Error())
	}
	low := rt.P.LowWatermark
	if low == 0 {
		low = 2 * rt.P.EvictBatch
		if m := limit / 16; low > m {
			low = m
		}
		if low < 1 {
			low = 1
		}
	}
	high := rt.P.HighWatermark
	if high == 0 {
		high = 3 * low
		if m := limit / 4; high > m {
			high = m
		}
	}
	// No explicit pair gets here (the check above rejects Low >= High), but
	// derived values do: both derived on a cache under 8 pages (low 1, high
	// limit/4 <= 1), a derived high under an explicit low of a quarter of
	// the cache or more, and a derived low at or above an explicit high.
	if high <= low {
		high = low + 1
	}
	rt.lowWater, rt.highWater = low, high
}

// LowWater and HighWater expose the derived watermarks (tests, reports).
func (rt *Runtime) LowWater() int  { return rt.lowWater }
func (rt *Runtime) HighWater() int { return rt.highWater }

// startEvictors spawns one background evictor daemon per NUMA node, pinned
// to the node's first CPU.
func (rt *Runtime) startEvictors(p *engine.Proc) {
	rt.setWatermarks()
	nodes := rt.e.NumNUMANodes()
	perNode := rt.e.NumCPUs() / nodes
	if perNode < 1 {
		perNode = 1
	}
	for n := 0; n < nodes; n++ {
		cpu := n * perNode
		if cpu >= rt.e.NumCPUs() {
			cpu = rt.e.NumCPUs() - 1
		}
		name := fmt.Sprintf("bg-evict.%d", n)
		ev := &bgEvictor{
			rt:   rt,
			wake: engine.NewSignal(rt.e, name),
			idle: true,
		}
		rt.e.SpawnDaemon(cpu, name, ev.run)
		rt.bg = append(rt.bg, ev)
	}
}

// kickEvictors wakes the daemons when a successful allocation drops the
// freelist below the low watermark (the normal wakeup path: reclaim starts
// before the list runs dry).
func (rt *Runtime) kickEvictors(p *engine.Proc) {
	if rt.bg == nil || rt.fl.Free() >= rt.lowWater {
		return
	}
	rt.wakeEvictors(p)
}

// wakeEvictors signals every idle daemon (empty-freelist path: all hands).
func (rt *Runtime) wakeEvictors(p *engine.Proc) {
	for _, ev := range rt.bg {
		if ev.idle {
			ev.idle = false
			ev.wake.Set(p.Now())
		}
	}
}

// evictorActive reports whether any daemon is awake and reclaiming; while
// true an empty-handed allocation throttle-waits instead of direct-reclaiming.
func (rt *Runtime) evictorActive() bool {
	for _, ev := range rt.bg {
		if !ev.idle {
			return true
		}
	}
	return false
}

// run is the daemon body: sleep until kicked, then reclaim batches until the
// freelist reaches the high watermark (hysteresis), tolerating a bounded
// number of empty selection rounds before sleeping again.
func (ev *bgEvictor) run(p *engine.Proc) {
	rt := ev.rt
	for {
		ev.idle = true
		ev.wake.Wait(p)
		ev.idle = false
		empty := 0
		for rt.fl.Free() < rt.highWater {
			if ev.reclaimBatch(p) > 0 {
				empty = 0
				continue
			}
			empty++
			if empty > evictorEmptyRounds {
				// Every candidate busy; faulters will re-kick, or direct
				// reclaim takes over once its throttle budget runs out.
				break
			}
			p.WaitUntil(p.Now()+evictStallQuantum, engine.KindIOWait)
		}
	}
}

// reclaimBatch is one background reclaim round: the same two halves as direct
// reclaim, with the dirty victims streamed through the engine's overlapped
// write path and the frames refilled straight into the NUMA queues (bypassing
// this core's private queue so all cores see them). A daemon whose batches
// keep failing stops overlapping until one completes clean.
func (ev *bgEvictor) reclaimBatch(p *engine.Proc) int {
	rt := ev.rt
	p.BeginSpan("aq.bg_evict")
	defer p.EndSpan()
	t0 := p.Now()
	victims, dirty := rt.claimVictims(p)
	if len(victims) == 0 {
		rt.Break.Add("bg_reclaim", p.Now()-t0)
		return 0
	}
	async := rt.Engine.overlaps()
	if async && len(dirty) > 0 && ev.failStreak >= bgSyncFallbackAfter {
		async = false
		rt.Stats.SyncWritebackFallbacks++
	}
	if rt.writeBack(p, dirty, "aq.bg_writeback", async, true) != nil {
		ev.failStreak++
	} else {
		ev.failStreak = 0
	}
	recycled := rt.releaseVictims(p, victims, dirty, true)
	rt.Stats.BgReclaimPages += uint64(recycled)
	rt.Break.Add("bg_reclaim", p.Now()-t0)
	return recycled
}
