// custompolicy: the customization the paper's contribution 1 promises —
// applications plug their own eviction policy into Aquila's mmio path
// (readahead is steered by madvise hints). This example installs a scan-resistant policy that evicts
// pages of a designated "streaming" file first, protecting the random-access
// working set of a second file, and compares hit rates against default LRU.
//
//	go run ./examples/custompolicy
package main

import (
	"fmt"

	"aquila"
	"aquila/internal/core"
)

// workload touches a hot file randomly while a cold file is streamed
// through sequentially — the classic scan-pollution pattern.
func workload(sys *aquila.System, hot, cold aquila.Mapping) (hotFaults uint64) {
	before := sys.RT.Stats.MajorFaults
	sys.Do(func(p *aquila.Proc) {
		buf := make([]byte, 8)
		// Warm the hot set.
		for off := uint64(0); off < hot.Size(); off += 4096 {
			hot.Load(p, off, buf)
		}
		hotWarm := sys.RT.Stats.MajorFaults
		// Interleave: stream the cold file, touch the hot set.
		for i := 0; i < 4; i++ {
			for off := uint64(0); off < cold.Size(); off += 4096 {
				cold.Load(p, off, buf)
			}
			for off := uint64(0); off < hot.Size(); off += 4096 {
				hot.Load(p, (off*7919)%(hot.Size()-8)/4096*4096, buf)
			}
		}
		_ = hotWarm
	})
	return sys.RT.Stats.MajorFaults - before
}

func build(scanResistant bool) uint64 {
	sys := aquila.New(aquila.Options{
		Mode: aquila.ModeAquila, Device: aquila.DevicePMem,
		CacheBytes: 8 << 20, DeviceBytes: 256 << 20,
	})
	defer sys.Close()
	var hot, cold aquila.Mapping
	sys.Do(func(p *aquila.Proc) {
		hf := sys.NS.Create(p, "hot", 6<<20)
		cf := sys.NS.Create(p, "cold-stream", 32<<20)
		hot = sys.NS.Mmap(p, hf, 6<<20)
		cold = sys.NS.Mmap(p, cf, 32<<20)
		cold.Advise(p, aquila.AdviceSequential) // readahead for the scan
	})
	if scanResistant {
		// Bias victim selection toward the streaming file's pages,
		// protecting the random-access working set.
		sys.RT.Prefer = func(pg *core.Page) bool {
			return pg.FileName() == "cold-stream"
		}
	}
	return workload(sys, hot, cold)
}

func main() {
	lru := build(false)
	custom := build(true)
	fmt.Printf("major faults with default LRU:          %d\n", lru)
	fmt.Printf("major faults with scan-resistant policy: %d\n", custom)
	fmt.Printf("custom policy avoided %.1f%% of the faults\n",
		100*(1-float64(custom)/float64(lru)))
}
