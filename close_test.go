package aquila_test

import (
	"runtime"
	"testing"
	"time"

	"aquila"
	"aquila/internal/core"
)

// TestCloseReleasesAsyncEvictWorlds boots, runs and closes 50 worlds with the
// background evictor on. Each world's evictor daemons (one per NUMA node)
// stay parked on their wake-up signal when the run ends; Close must unwind
// them, or every world is pinned — cache frames included — for the life of
// the process. Without the Close call this test ends with 100 goroutines
// above its baseline.
func TestCloseReleasesAsyncEvictWorlds(t *testing.T) {
	baseline := runtime.NumGoroutine()
	par := core.DefaultParams()
	par.AsyncEvict = true
	for w := 0; w < 50; w++ {
		sys := aquila.New(aquila.Options{
			Device: aquila.DevicePMem, CPUs: 4, CacheBytes: 1 << 20, DeviceBytes: 16 << 20,
			Params: &par, Seed: int64(w + 1),
		})
		sys.Do(func(p *aquila.Proc) {
			f := sys.NS.Create(p, "data", 4<<20)
			m := sys.NS.Mmap(p, f, 4<<20)
			for off := uint64(0); off < 4<<20; off += 4096 {
				m.Store(p, off, []byte{byte(w)}) // 4x the cache: the evictors run
			}
		})
		if sys.RT.Stats.BgReclaimPages == 0 {
			t.Fatalf("world %d: the background evictor never ran", w)
		}
		sys.Close()
		sys.Close() // idempotent
	}
	// A released daemon's goroutine exits just after Close's switch into it.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, baseline %d: closed worlds left daemons parked",
				runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}
