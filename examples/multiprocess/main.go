// multiprocess: shared file-backed mappings across processes — the storage
// sharing primitive §2.1 builds on. Two simulated processes map the same file
// on the Linux host; stores from one are immediately visible to the other
// through the shared page cache, while each keeps its own page table, ASID
// and mm_cpumask. Write-back and reclaim shoot a shared page down in every
// process that maps it, in process-ID order, so a multi-process world replays
// cycle for cycle like any other: run this twice and the simulated time
// printed at the end is the same.
//
//	go run ./examples/multiprocess
package main

import (
	"fmt"

	"aquila"
	"aquila/internal/host"
)

func main() {
	sys := aquila.New(aquila.Options{
		Mode:       aquila.ModeLinuxMmap,
		Device:     aquila.DevicePMem,
		CacheBytes: 32 << 20,
		CPUs:       8,
	})
	defer sys.Close()

	var f *host.FSFile
	var producer, consumer *host.Mapping
	sys.Do(func(p *aquila.Proc) {
		f = sys.Host.FS.Create(p, "shm", 4<<20)
		p1 := sys.Host.DefaultProcess()
		p2 := sys.Host.NewProcess()
		producer = p1.Mmap(p, f, 4<<20)
		consumer = p2.Mmap(p, f, 4<<20)
	})

	// Producer (process 1, CPU 0) writes records; consumer (process 2,
	// CPU 4) polls and reads them through its own address space.
	const records = 64
	sys.Sim.Spawn(0, "producer", func(p *aquila.Proc) {
		for i := 0; i < records; i++ {
			msg := fmt.Sprintf("record-%02d", i)
			producer.Store(p, uint64(i)*4096, []byte(msg))
			p.AdvanceUser(5000)
		}
		producer.Msync(p)
	})
	seen := 0
	sys.Sim.Spawn(4, "consumer", func(p *aquila.Proc) {
		buf := make([]byte, 9)
		for i := 0; i < records; i++ {
			for {
				consumer.Load(p, uint64(i)*4096, buf)
				if buf[0] != 0 {
					break
				}
				p.SleepIO(2000) // poll
			}
			seen++
		}
	})
	sys.Sim.Run()

	fmt.Printf("consumer observed %d/%d records through the shared page cache\n", seen, records)
	fmt.Printf("file faulted once per page in total: %d major faults\n", f.MajorFaults())
	fmt.Printf("simulated time: %.2f us\n", sys.Seconds()*1e6)
}
