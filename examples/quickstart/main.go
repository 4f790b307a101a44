// Quickstart: boot an Aquila system over a pmem device, map a file, do
// memory-mapped I/O through the ring-0 mmio path, and inspect what the
// runtime did.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"aquila"
)

func main() {
	// A 32-CPU machine with a 64 MB DRAM I/O cache over DRAM-backed pmem,
	// using the DAX engine (the paper's preferred pmem configuration).
	sys := aquila.New(aquila.Options{
		Mode:       aquila.ModeAquila,
		Device:     aquila.DevicePMem,
		CacheBytes: 64 << 20,
	})
	defer sys.Close()

	sys.Do(func(p *aquila.Proc) {
		// Create a 16 MB file and map it — the mmap-compatible API of §3.
		f := sys.NS.Create(p, "data", 16<<20)
		m := sys.NS.Mmap(p, f, 16<<20)

		// Stores fault pages in (read-only first, then a write-protect
		// fault marks them dirty), all handled in non-root ring 0.
		m.Store(p, 4096, []byte("hello, memory-mapped storage"))

		// Touch a working set so the per-fault numbers below are
		// steady-state rather than one-time setup costs.
		buf8 := make([]byte, 8)
		for off := uint64(0); off < m.Size(); off += 4096 {
			m.Load(p, off, buf8)
		}

		// Loads on cached pages are pure hardware translation: no
		// software cost at all.
		buf := make([]byte, 28)
		m.Load(p, 4096, buf)
		fmt.Printf("read back: %q\n", buf)

		// msync is intercepted in ring 0 — a function call, not a
		// syscall — and writes dirty pages back sorted by device offset.
		m.Msync(p)
	})

	rt := sys.RT
	fmt.Printf("major faults:   %d\n", rt.Stats.MajorFaults)
	fmt.Printf("wp faults:      %d (dirty tracking)\n", rt.Stats.WPFaults)
	fmt.Printf("written back:   %d pages\n", rt.Stats.WrittenBack)
	fmt.Printf("simulated time: %.2f us at 2.4 GHz\n", sys.Seconds()*1e6)
	fmt.Println("\nfault-path cycle breakdown:")
	faults := rt.Stats.MajorFaults + rt.Stats.MinorFaults + rt.Stats.WPFaults
	fmt.Print(rt.Break.Table(faults))
}
