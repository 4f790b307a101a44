package aquila_test

import (
	"fmt"

	"aquila"
)

// The canonical flow: boot a world, create and map a file, do mmio, msync.
func Example() {
	sys := aquila.New(aquila.Options{
		Mode:       aquila.ModeAquila,
		Device:     aquila.DevicePMem,
		CacheBytes: 16 << 20,
		CPUs:       4,
	})
	defer sys.Close()
	sys.Do(func(p *aquila.Proc) {
		f := sys.NS.Create(p, "data", 1<<20)
		m := sys.NS.Mmap(p, f, 1<<20)
		m.Store(p, 0, []byte("hello"))
		m.Msync(p)
		buf := make([]byte, 5)
		m.Load(p, 0, buf)
		fmt.Println(string(buf))
	})
	// Output: hello
}

// Applications written against the shared interfaces run unmodified over
// Linux mmap, Linux direct I/O, or Aquila — select the world with Options.
func Example_worlds() {
	for _, mode := range []aquila.Mode{
		aquila.ModeLinuxMmap, aquila.ModeLinuxDirect, aquila.ModeAquila,
	} {
		sys := aquila.New(aquila.Options{Mode: mode, Device: aquila.DevicePMem, CPUs: 2})
		sys.Do(func(p *aquila.Proc) {
			f := sys.NS.Create(p, "x", 64<<10)
			f.Pwrite(p, []byte("portable"), 0)
			buf := make([]byte, 8)
			f.Pread(p, buf, 0)
			fmt.Println(string(buf))
		})
	}
	// Output:
	// portable
	// portable
	// portable
}

// Simulated runs are deterministic: the same seed gives the same cycle-exact
// result on any machine.
func Example_determinism() {
	run := func() uint64 {
		sys := aquila.New(aquila.Options{
			Mode: aquila.ModeAquila, Device: aquila.DeviceNVMe,
			CacheBytes: 8 << 20, CPUs: 4, Seed: 7,
		})
		sys.Do(func(p *aquila.Proc) {
			f := sys.NS.Create(p, "d", 4<<20)
			m := sys.NS.Mmap(p, f, 4<<20)
			buf := make([]byte, 8)
			for off := uint64(0); off < 4<<20; off += 4096 {
				m.Load(p, off, buf)
			}
		})
		return sys.Sim.Now()
	}
	fmt.Println(run() == run())
	// Output: true
}
