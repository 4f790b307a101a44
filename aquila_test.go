package aquila

import (
	"bytes"
	"testing"
)

func TestSystemModesRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"aquila-pmem-dax", Options{Mode: ModeAquila, Device: DevicePMem, CPUs: 4}},
		{"aquila-nvme-spdk", Options{Mode: ModeAquila, Device: DeviceNVMe, CPUs: 4}},
		{"aquila-pmem-hostdirect", Options{Mode: ModeAquila, Device: DevicePMem, Engine: EngineHostDirect, CPUs: 4}},
		{"aquila-nvme-hostdirect", Options{Mode: ModeAquila, Device: DeviceNVMe, Engine: EngineHostDirect, CPUs: 4}},
		{"linux-mmap-pmem", Options{Mode: ModeLinuxMmap, Device: DevicePMem, CPUs: 4}},
		{"linux-direct-nvme", Options{Mode: ModeLinuxDirect, Device: DeviceNVMe, CPUs: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := New(tc.opts)
			sys.Do(func(p *Proc) {
				f := sys.NS.Create(p, "data", 8<<20)
				m := sys.NS.Mmap(p, f, 8<<20)
				payload := []byte("cross-world payload")
				m.Store(p, 12345, payload)
				m.Msync(p)
				got := make([]byte, len(payload))
				m.Load(p, 12345, got)
				if !bytes.Equal(got, payload) {
					t.Errorf("mapping round trip mismatch: %q", got)
				}
				// File path too (skip mmap-coherence concerns by using
				// a separate file).
				f2 := sys.NS.Create(p, "data2", 1<<20)
				f2.Pwrite(p, payload, 999)
				got2 := make([]byte, len(payload))
				f2.Pread(p, got2, 999)
				if !bytes.Equal(got2, payload) {
					t.Errorf("file round trip mismatch: %q", got2)
				}
			})
			if sys.Seconds() <= 0 {
				t.Error("no simulated time elapsed")
			}
		})
	}
}

func TestRunParallelThreads(t *testing.T) {
	sys := New(Options{Mode: ModeAquila, Device: DevicePMem, CPUs: 8, CacheBytes: 32 << 20})
	var f File
	var m Mapping
	sys.Do(func(p *Proc) {
		f = sys.NS.Create(p, "shared", 16<<20)
		m = sys.NS.Mmap(p, f, 16<<20)
	})
	elapsed := sys.Run(8, func(tid int, p *Proc) {
		buf := make([]byte, 8)
		for j := 0; j < 100; j++ {
			m.Load(p, uint64((tid*100+j)*4096)%(16<<20-8), buf)
		}
	})
	if elapsed == 0 {
		t.Fatal("parallel phase took no simulated time")
	}
	if got := ThroughputOpsPerSec(800, elapsed); got <= 0 {
		t.Errorf("throughput = %v", got)
	}
}

func TestAquilaFasterThanLinuxOnFaultStorm(t *testing.T) {
	// The headline property: random single-page faults over a shared file,
	// in-memory — Aquila must beat Linux mmap (Fig 10a).
	run := func(mode Mode) uint64 {
		sys := New(Options{
			Mode: mode, Device: DevicePMem, CPUs: 4,
			CacheBytes: 64 << 20, DeviceBytes: 256 << 20,
		})
		var m Mapping
		sys.Do(func(p *Proc) {
			f := sys.NS.Create(p, "data", 32<<20)
			m = sys.NS.Mmap(p, f, 32<<20)
			m.Advise(p, AdviceRandom)
		})
		return sys.Run(4, func(tid int, p *Proc) {
			buf := make([]byte, 8)
			for j := 0; j < 1000; j++ {
				pg := uint64((j*4+tid)*7919) % (32 << 8) // random-ish page
				m.Load(p, pg*4096, buf)
			}
		})
	}
	linux := run(ModeLinuxMmap)
	aq := run(ModeAquila)
	if aq >= linux {
		t.Errorf("Aquila (%d cycles) not faster than Linux mmap (%d cycles)", aq, linux)
	}
}

func TestPublicTraceOption(t *testing.T) {
	sys := New(Options{Mode: ModeAquila, Device: DevicePMem, CPUs: 2, Trace: true})
	sys.Do(func(p *Proc) {
		f := sys.NS.Create(p, "t", 1<<20)
		m := sys.NS.Mmap(p, f, 1<<20)
		m.Store(p, 0, []byte("x"))
	})
	if len(sys.Sim.Trace()) == 0 {
		t.Fatal("no trace captured with Options.Trace")
	}
}

// TestMultiProcessWorldIsDeterministic holds the repo's first contract —
// deterministic given a seed — for worlds with more than one address space:
// three processes, two threads each, fault, dirty and msync one shared file
// eight times its page cache, so write-back and reclaim shoot down pages that
// several processes map. Eight same-seed runs must end on the same clock, the
// same eviction count and the same device image.
func TestMultiProcessWorldIsDeterministic(t *testing.T) {
	const procs, threads, ops = 3, 6, 3000
	const fileBytes, cacheBytes = 32 << 20, 4 << 20
	type outcome struct {
		clock, evicted, fingerprint uint64
	}
	run := func() outcome {
		sys := New(Options{
			Mode: ModeLinuxMmap, Device: DevicePMem, CPUs: threads,
			CacheBytes: cacheBytes, DeviceBytes: 64 << 20, Seed: 7,
		})
		defer sys.Close()
		maps := make([]Mapping, procs)
		sys.Do(func(p *Proc) {
			f := sys.Host.FS.Create(p, "shared", fileBytes)
			for i := range maps {
				pr := sys.Host.DefaultProcess()
				if i > 0 {
					pr = sys.Host.NewProcess()
				}
				maps[i] = pr.Mmap(p, f, fileBytes)
			}
		})
		sys.Run(threads, func(tid int, p *Proc) {
			m := maps[tid%procs]
			buf := make([]byte, 8)
			x := uint64(tid)*2654435761 + 1
			for i := 0; i < ops; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				off := (x >> 33) % (fileBytes / 4096) * 4096
				if i%3 == 2 {
					buf[0] = byte(tid + 1)
					m.Store(p, off, buf)
				} else {
					m.Load(p, off, buf)
				}
			}
			m.Msync(p)
		})
		if err := sys.Host.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		st := sys.Host.Disk().Content
		st.SettleAll()
		return outcome{sys.Sim.Now(), sys.Host.Cache.Evicted, st.Fingerprint()}
	}
	first := run()
	if first.evicted == 0 {
		t.Fatal("no evictions: the world does not exercise reclaim")
	}
	for i := 1; i < 8; i++ {
		if got := run(); got != first {
			t.Errorf("run %d: clock/evicted/fingerprint = %+v, first run %+v", i, got, first)
		}
	}
}
