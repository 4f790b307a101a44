// Package aquila is the public API of this repository: a library-OS runtime,
// reproduced from "Memory-Mapped I/O on Steroids" (EuroSys '21), that gives
// applications a customizable, low-overhead memory-mapped I/O path.
//
// Because a Go runtime cannot execute in non-root ring 0, the system runs on
// a deterministic simulated machine (see DESIGN.md): all costs are simulated
// cycles at the paper's 2.4 GHz testbed clock, all concurrency is simulated
// threads, and both worlds under study — the Linux kernel I/O stack and the
// Aquila library OS — are full implementations over that machine.
//
// Typical use:
//
//	sys := aquila.New(aquila.Options{
//		Device:     aquila.DevicePMem,
//		CacheBytes: 64 << 20,
//	})
//	defer sys.Close()
//	sys.Do(func(p *aquila.Proc) {
//		f := sys.NS.Create(p, "data", 16<<20)
//		m := sys.NS.Mmap(p, f, 16<<20)
//		m.Store(p, 0, []byte("hello"))
//		m.Msync(p)
//	})
//	fmt.Println(sys.Seconds(), "simulated seconds")
package aquila

import (
	"fmt"

	"aquila/internal/core"
	"aquila/internal/host"
	"aquila/internal/iface"
	"aquila/internal/obs"
	"aquila/internal/sim/cpu"
	"aquila/internal/sim/device"
	simengine "aquila/internal/sim/engine"
	"aquila/internal/spdk"
)

// Re-exported application-facing types: programs written against these run
// unmodified over Aquila or the Linux baseline.
type (
	// Proc is a simulated thread.
	Proc = simengine.Proc
	// File is explicit-I/O file access.
	File = iface.File
	// Mapping is memory-mapped access.
	Mapping = iface.Mapping
	// Namespace creates, deletes and maps files.
	Namespace = iface.Namespace
	// Advice is the madvise hint set.
	Advice = iface.Advice
)

// madvise hints, re-exported.
const (
	AdviceNormal     = iface.AdviceNormal
	AdviceRandom     = iface.AdviceRandom
	AdviceSequential = iface.AdviceSequential
	AdviceWillNeed   = iface.AdviceWillNeed
	AdviceDontNeed   = iface.AdviceDontNeed
	// AdviceHuge (MADV_HUGEPAGE) asks for 2 MB mappings: under Aquila every
	// extent of the region promotes on first fault (contiguity permitting)
	// and dirtying stores re-dirty units whole instead of splitting them.
	// Requires Params.HugeFaultDensity > 0; ignored by the Linux worlds.
	AdviceHuge = iface.AdviceHuge
)

// Fault-injection types, re-exported so experiments can build plans without
// importing internal packages.
type (
	// FaultPlan is a deterministic device fault schedule.
	FaultPlan = device.FaultPlan
	// FaultRule is one rule of a plan.
	FaultRule = device.FaultRule
	// FaultKind classifies an injected fault.
	FaultKind = device.FaultKind
	// IOError is the typed error injected operations return.
	IOError = device.IOError
	// SigBus is the typed panic value a failed mapped access delivers.
	SigBus = core.SigBus
	// IOFault is the per-page error wrapped inside SigBus and sync errors.
	IOFault = core.IOFault
)

// Fault kinds, re-exported.
const (
	FaultTransientRead  = device.FaultTransientRead
	FaultTransientWrite = device.FaultTransientWrite
	FaultPermanentRead  = device.FaultPermanentRead
	FaultPermanentWrite = device.FaultPermanentWrite
	FaultLatencySpike   = device.FaultLatencySpike
	FaultPoison         = device.FaultPoison
)

// DeviceKind selects the storage device model.
type DeviceKind int

// Storage devices of the paper's testbed (§5).
const (
	// DevicePMem is the DRAM-backed pmem block device.
	DevicePMem DeviceKind = iota
	// DeviceNVMe is the Optane P4800X-class NVMe SSD.
	DeviceNVMe
)

// EngineKind selects Aquila's device-access method (§3.3, Fig 8c).
type EngineKind int

// I/O engines.
const (
	// EngineAuto picks DAX for pmem and SPDK for NVMe (the paper's
	// preferred configurations).
	EngineAuto EngineKind = iota
	// EngineDAX is direct load/store access to pmem with AVX2 copies.
	EngineDAX
	// EngineSPDK is user-space NVMe via SPDK + Blobstore.
	EngineSPDK
	// EngineHostDirect issues direct I/O through the host kernel
	// (HOST-pmem / HOST-NVMe): one vmcall + syscall per I/O.
	EngineHostDirect
)

// Mode selects which world serves the Namespace.
type Mode int

// Execution modes.
const (
	// ModeAquila runs the application over the Aquila library OS.
	ModeAquila Mode = iota
	// ModeLinuxMmap runs over Linux mmap (kernel page cache, ring-3 faults).
	ModeLinuxMmap
	// ModeLinuxDirect runs over Linux O_DIRECT read/write syscalls
	// (mappings are still served by Linux mmap).
	ModeLinuxDirect
)

// String returns the mode's label ("aquila", "linux", "linux-direct"): the
// trace label and metrics world of a System that names none.
func (m Mode) String() string {
	switch m {
	case ModeLinuxMmap:
		return "linux"
	case ModeLinuxDirect:
		return "linux-direct"
	default:
		return "aquila"
	}
}

// Options configures a System.
type Options struct {
	// CPUs is the simulated CPU count (default 32, the paper's testbed).
	CPUs int
	// Seed is read by nothing: New only copies it into engine.Config.Seed,
	// which is inert too (the simulation is deterministic without it, and
	// simulated code seeds its own generators). The field stays because the
	// frozen bench/ names it in its Options literals.
	Seed int64
	// Mode selects the world (default ModeAquila).
	Mode Mode
	// Device selects the storage device (default DevicePMem).
	Device DeviceKind
	// Engine selects Aquila's I/O engine (default EngineAuto).
	Engine EngineKind
	// CacheBytes is the DRAM I/O cache size (Aquila cache or host page
	// cache cgroup limit). Default 64 MB.
	CacheBytes uint64
	// MaxCacheBytes bounds dynamic cache growth (Aquila only).
	MaxCacheBytes uint64
	// DeviceBytes is the storage capacity (default 1 GB).
	DeviceBytes uint64
	// Params overrides Aquila's policy knobs (nil: core.DefaultParams).
	Params *core.Params
	// Tracer, when non-nil, receives cycle-attributed spans from every
	// layer (scheduler, fault paths, devices) for Chrome trace export.
	// A tracer may be shared by several Systems; TraceLabel tells their
	// track groups apart.
	Tracer *obs.Tracer
	// Registry, when non-nil, collects this System's metrics (fault-cycle
	// breakdowns, latency histograms, counters). May be shared.
	Registry *obs.Registry
	// Profiler, when non-nil, receives the lossless closed-span stream for
	// hierarchical cycle profiling (internal/obs/profile.Profiler is the
	// canonical implementation). May be shared by several Systems;
	// TraceLabel keeps their tracks apart.
	Profiler obs.SpanSink
	// TraceLabel prefixes this System's tracks and labels its metrics.
	// Empty derives a label from Mode ("aquila", "linux", ...).
	TraceLabel string
	// SchedPerturb perturbs the simulator's tie-breaking among processes
	// runnable at the same cycle (see engine.Config.SchedPerturb): every
	// value is a fully deterministic, replayable schedule; 0 is the
	// canonical spawn-order schedule, bit-identical to previous releases.
	// The torture harness (cmd/aqtort) sweeps this to explore interleavings.
	SchedPerturb uint64

	// Recovery state, set only by Recover (see crash.go): the durable media
	// image the device adopts at boot and the errseq state to replay.
	restoreMedia map[uint64][]byte
	restoreWBErr map[string]error
}

func (o *Options) fill() {
	if o.CPUs == 0 {
		o.CPUs = 32
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 64 << 20
	}
	if o.DeviceBytes == 0 {
		o.DeviceBytes = 1 << 30
	}
	if o.MaxCacheBytes < o.CacheBytes {
		o.MaxCacheBytes = o.CacheBytes
	}
}

// System is one booted world: a simulated machine, a host OS, optionally an
// Aquila runtime, and the Namespace applications program against.
type System struct {
	Opts Options
	// Sim is the discrete-event engine; use it for custom spawning.
	Sim *simengine.Engine
	// Host is the simulated Linux instance (always present: it is the
	// baseline world and Aquila's hypervisor).
	Host *host.OS
	// RT is the Aquila runtime (nil in Linux modes).
	RT *core.Runtime
	// NS is the namespace applications use.
	NS Namespace
	// PMem / NVMe expose the raw devices for inspection.
	PMem *device.PMem
	NVMe *device.NVMe
	// crashPlan is the armed crash schedule (see InjectCrash in crash.go).
	crashPlan *CrashPlan
}

// New boots a System with the given options.
func New(opts Options) *System {
	opts.fill()
	s := &System{Opts: opts}
	label := s.TraceLabel()
	s.Sim = simengine.New(simengine.Config{
		NumCPUs: opts.CPUs, Seed: opts.Seed,
		Spans: opts.Tracer, Profile: opts.Profiler, Registry: opts.Registry,
		TraceLabel: label, SchedPerturb: opts.SchedPerturb,
	})
	var disk *host.Disk
	var devName string
	switch opts.Device {
	case DevicePMem:
		devName = "pmem0"
		s.PMem = device.NewPMem(opts.DeviceBytes, device.DefaultPMemConfig())
		disk = host.NewPMemDisk(devName, s.PMem)
	case DeviceNVMe:
		devName = "nvme0"
		s.NVMe = device.NewNVMe(opts.DeviceBytes, device.DefaultNVMeConfig())
		disk = host.NewNVMeDisk(devName, s.NVMe)
	default:
		panic(fmt.Sprintf("aquila: unknown device kind %d", opts.Device))
	}
	if opts.restoreMedia != nil {
		// Recovery boot: the device starts from the crash image's durable
		// media, before any layer above has touched it.
		disk.Content.AdoptMedia(opts.restoreMedia)
	}
	if opts.Tracer != nil || opts.Registry != nil {
		devPID := 0
		if opts.Tracer != nil {
			devPID = opts.Tracer.RegisterProcess(label + "/devices")
			opts.Tracer.SetThreadName(devPID, 0, devName)
		}
		disk.Content.Instrument(opts.Tracer, devPID, 0, opts.Registry, label+"/"+devName)
	}
	s.Host = host.NewOS(s.Sim, disk, opts.CacheBytes)

	switch opts.Mode {
	case ModeLinuxMmap:
		s.NS = &host.Namespace{OS: s.Host, Direct: false}
	case ModeLinuxDirect:
		s.NS = &host.Namespace{OS: s.Host, Direct: true}
	case ModeAquila:
		s.Do(func(p *Proc) {
			eng := s.buildEngine(p)
			s.RT = core.NewRuntime(p, s.Host, eng, core.Config{
				CacheBytes:       opts.CacheBytes,
				MaxCacheBytes:    opts.MaxCacheBytes,
				Params:           opts.Params,
				RestoredWBErrors: opts.restoreWBErr,
			})
			s.NS = &core.Namespace{RT: s.RT}
		})
	default:
		panic(fmt.Sprintf("aquila: unknown mode %d", opts.Mode))
	}
	return s
}

// InjectFaults attaches a deterministic fault plan to the System's storage
// device; every subsequent I/O (either world, any engine) is checked against
// it. A nil plan detaches. Injection is recorded in the registry
// (dev_faults_injected) and trace (dev.fault spans) when instrumented.
func (s *System) InjectFaults(plan *device.FaultPlan) {
	d := s.Host.Disk()
	d.Content.InjectFaults(d.Name, plan)
}

// InjectedFaults returns how many faults the device has injected so far.
func (s *System) InjectedFaults() uint64 { return s.Store().InjectedFaults() }

// TraceLabel returns the label identifying this System in shared tracers and
// registries: Options.TraceLabel, or the mode's (Mode.String).
func (s *System) TraceLabel() string {
	if s.Opts.TraceLabel != "" {
		return s.Opts.TraceLabel
	}
	return s.Opts.Mode.String()
}

// PublishStats pushes the System's operation counters (Aquila runtime stats,
// page-cache stats, raw device stats) into the configured registry, labeled
// with the System's trace label. No-op without a registry.
func (s *System) PublishStats() {
	reg := s.Opts.Registry
	if reg == nil {
		return
	}
	l := obs.L("world", s.TraceLabel())
	if s.RT != nil {
		st := s.RT.Stats
		reg.Counter("aq_major_faults", l).Set(st.MajorFaults)
		reg.Counter("aq_minor_faults", l).Set(st.MinorFaults)
		reg.Counter("aq_wp_faults", l).Set(st.WPFaults)
		reg.Counter("aq_evictions", l).Set(st.Evictions)
		reg.Counter("aq_written_back", l).Set(st.WrittenBack)
		reg.Counter("aq_shootdown_batches", l).Set(st.ShootdownBatches)
		reg.Counter("aq_readahead_pages", l).Set(st.ReadaheadPages)
		reg.Counter("aq_direct_reclaim_pages", l).Set(st.DirectReclaimPages)
		reg.Counter("aq_bg_reclaim_pages", l).Set(st.BgReclaimPages)
		reg.Counter("aq_evict_stalls", l).Set(st.EvictStalls)
		reg.Counter("aq_io_retries", l).Set(st.IORetries)
		reg.Counter("aq_poisoned_pages", l).Set(st.PoisonedPages)
		reg.Counter("aq_quarantined_pages", l).Set(st.QuarantinedPages)
		reg.Counter("aq_requeued_pages", l).Set(st.RequeuedPages)
		reg.Counter("aq_sync_wb_fallbacks", l).Set(st.SyncWritebackFallbacks)
		reg.Counter("aq_huge_faults", l).Set(st.HugeFaults)
		reg.Counter("aq_huge_promotions", l).Set(st.HugePromotions)
		reg.Counter("aq_huge_demotions", l).Set(st.HugeDemotions)
		reg.Counter("aq_huge_evictions", l).Set(st.HugeEvictions)
		reg.Counter("aq_recovery_restored_wb_errors", l).Set(st.RestoredWBErrors)
	}
	if info := s.Sim.Crashed(); info != nil {
		reg.Gauge("aq_crash_cycle", l).Set(float64(info.Cycle))
		if res := s.Store().CrashedResult(); res != nil {
			reg.Counter("aq_crash_dropped_blocks", l).Set(uint64(res.DroppedBlocks))
			reg.Counter("aq_crash_torn_blocks", l).Set(uint64(res.TornBlocks))
		}
	}
	c := s.Host.Cache
	reg.Counter("pagecache_inserted", l).Set(c.Inserted)
	reg.Counter("pagecache_evicted", l).Set(c.Evicted)
	reg.Counter("pagecache_written_back", l).Set(c.WrittenBk)
	reg.Counter("pagecache_promoted", l).Set(c.Promoted)
	reg.Counter("pagecache_demoted", l).Set(c.Demoted)
	dst := s.Store().Stats()
	reg.Counter("dev_content_reads", l).Set(dst.Reads)
	reg.Counter("dev_content_writes", l).Set(dst.Writes)
	reg.Counter("dev_bytes_read", l).Set(dst.BytesRead)
	reg.Counter("dev_bytes_written", l).Set(dst.BytesWritten)
	reg.Gauge("sim_cycles", l).Set(float64(s.Sim.Now()))
}

func (s *System) buildEngine(p *Proc) core.IOEngine {
	kind := s.Opts.Engine
	if kind == EngineAuto {
		if s.Opts.Device == DevicePMem {
			kind = EngineDAX
		} else {
			kind = EngineSPDK
		}
	}
	switch kind {
	case EngineDAX:
		return core.NewDAXEngine(s.Host)
	case EngineSPDK:
		if s.NVMe == nil {
			panic("aquila: SPDK engine requires DeviceNVMe")
		}
		// SPDK takes the NVMe device over from the kernel: it must be
		// dedicated to this process (§3.3).
		return core.NewSPDKEngine(spdk.NewFileMap(spdk.NewBlobstore(spdk.NewDriver(s.NVMe))))
	case EngineHostDirect:
		return core.NewHostEngine(s.Host)
	default:
		panic(fmt.Sprintf("aquila: unknown engine kind %d", kind))
	}
}

// Do runs fn as a single simulated thread on CPU 0 and waits for completion.
func (s *System) Do(fn func(p *Proc)) {
	s.Sim.Spawn(0, "main", fn)
	s.Sim.Run()
	s.auditDurability()
}

// Run spawns `threads` simulated threads (one per CPU, round-robin) running
// fn(threadID, proc) and waits for all of them. It returns the elapsed
// simulated cycles of the parallel phase.
func (s *System) Run(threads int, fn func(t int, p *Proc)) uint64 {
	start := s.Sim.Now()
	for i := 0; i < threads; i++ {
		i := i
		s.Sim.SpawnAt(i%s.Opts.CPUs, fmt.Sprintf("worker-%d", i), start, func(p *Proc) {
			fn(i, p)
		})
	}
	s.Sim.Run()
	s.auditDurability()
	return s.Sim.Now() - start
}

// auditDurability panics when the world, drained and not crashed, owes the
// device a durability point: a write path staged a block and returned without
// its Persist (device.Store.Owed names the block and the device write).
func (s *System) auditDurability() {
	if s.Sim.Crashed() != nil {
		return
	}
	if w, owed := s.Store().Owed(); owed {
		panic(fmt.Sprintf("aquila: %v", w))
	}
}

// Close releases the simulated threads still parked inside the System — the
// background evictor daemons of an AsyncEvict world, threads a deadlock left
// blocked — so that a dropped System can be garbage-collected. No simulated
// result depends on it; a closed System can be inspected but runs nothing
// more (Do and Run panic). Idempotent.
func (s *System) Close() { s.Sim.Close() }

// Seconds returns the total simulated wall-clock time so far.
func (s *System) Seconds() float64 { return cpu.CyclesToSeconds(s.Sim.Now()) }

// ThroughputOpsPerSec converts an operation count over elapsed cycles to
// operations per simulated second.
func ThroughputOpsPerSec(ops uint64, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(ops) / cpu.CyclesToSeconds(cycles)
}

// CyclesToMicros re-exports the cycle-to-microsecond conversion.
func CyclesToMicros(c uint64) float64 { return cpu.CyclesToMicros(c) }
