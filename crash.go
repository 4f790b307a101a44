package aquila

import (
	"math/rand"

	"aquila/internal/sim/device"
	simengine "aquila/internal/sim/engine"
)

// Crash-consistency API: deterministic crash-point injection, durable-image
// capture, and recovery into a fresh System.
//
// A CrashPlan arms the machine to die at a precise point — a simulated cycle,
// the Nth device content write, or entry to a named span such as "aq.msync".
// When the trigger fires every simulated thread unwinds without user-space
// cleanup and Run returns with Crashed() non-nil. CaptureCrash() then applies
// the device durability model (completed writes survive, in-flight writes are
// dropped or leave a seeded torn-sector prefix) and snapshots the byte-exact
// durable image. Recover() boots a new System from that image:
//
//	sys.InjectCrash(&aquila.CrashPlan{AtSpan: "aq.msync", SpanHit: 3})
//	sys.Do(workload)               // dies mid-third-msync
//	img := sys.CaptureCrash()
//	sys2 := aquila.Recover(sys.Opts, img)
//	sys2.Do(verify)                // sees exactly the durable prefix
//
// Recovery determinism contract: the simulated filesystem and blobstore keep
// their allocation metadata in host memory (conceptually journaled), and both
// allocate deterministically (first-fit extents, LIFO cluster stack) without
// zeroing media. A recovery procedure that re-creates files in the same order
// as the crashed run therefore finds each file's bytes at the same device
// offsets — which is how the Kreon recovery pass and the ablate-crash oracle
// re-attach to their data.
type (
	// CrashPlan is a seeded, declarative crash schedule (see device.CrashPlan).
	CrashPlan = device.CrashPlan
	// CrashInfo describes a crash that ended a run.
	CrashInfo = simengine.CrashInfo
	// CrashResult summarizes what the durability model did at the crash.
	CrashResult = device.CrashResult
)

// LoadCrashPlan reads a crash plan from a JSON fixture.
func LoadCrashPlan(path string) (*CrashPlan, error) { return device.LoadCrashPlan(path) }

// CrashImage is the byte-exact durable state a crash left behind, plus the
// metadata recovery needs. It is self-contained: the originating System can be
// discarded.
type CrashImage struct {
	// Cycle and Reason echo the trigger that killed the run.
	Cycle  uint64
	Reason string
	// Media is the durable device image (deep copy; block index -> content).
	Media map[uint64][]byte
	// Fingerprint is the FNV-1a hash of Media — the determinism witness:
	// same workload + same seed + same plan must reproduce it bit-exactly.
	Fingerprint uint64
	// DroppedBlocks / TornBlocks count in-flight writes discarded at the
	// crash and those that left a partial sector prefix.
	DroppedBlocks int
	TornBlocks    int
	// WBErrors carries per-file writeback errors no sync caller had observed
	// yet; Recover seeds the new runtime's errseq state from it so
	// exactly-once error reporting survives the restart.
	WBErrors map[string]error
}

// Store returns the System's device content store (exactly one device exists).
func (s *System) Store() *device.Store { return s.Host.Disk().Content }

// InjectCrash arms a crash plan on the System: engine-side triggers (cycle,
// span) and the device-op trigger. An empty or nil plan disarms everything —
// running with an empty plan is bit-identical to running with none.
func (s *System) InjectCrash(plan *CrashPlan) {
	s.crashPlan = plan
	if plan.Empty() {
		s.Sim.ArmCrash(simengine.CrashConfig{})
		s.Store().ArmCrashAtOp(0, nil)
		return
	}
	s.Sim.ArmCrash(simengine.CrashConfig{
		AtCycle: plan.AtCycle, AtSpan: plan.AtSpan, SpanHit: plan.SpanHit,
	})
	if plan.AtDeviceOp > 0 {
		s.Store().ArmCrashAtOp(plan.AtDeviceOp, func() {
			s.Sim.CrashNow("device-op")
		})
	}
}

// Crashed returns the crash that ended the run, or nil.
func (s *System) Crashed() *CrashInfo { return s.Sim.Crashed() }

// CaptureCrash applies the durability model at the crash instant — staged
// writes whose completion had passed fold into media, the rest are discarded
// (optionally tearing a sector prefix under the plan's seeded policy) — and
// returns the resulting durable image. Panics if the System has not crashed.
func (s *System) CaptureCrash() *CrashImage {
	info := s.Sim.Crashed()
	if info == nil {
		panic("aquila: CaptureCrash on a system that has not crashed")
	}
	st := s.Store()
	res := st.CrashedResult()
	if res == nil {
		seed, tear := int64(1), 0.0
		if s.crashPlan != nil {
			tear = s.crashPlan.TearProb
			if s.crashPlan.Seed != 0 {
				seed = s.crashPlan.Seed
			}
		}
		r := st.Crash(info.Cycle, rand.New(rand.NewSource(seed)), tear)
		res = &r
	}
	img := &CrashImage{
		Cycle:         info.Cycle,
		Reason:        info.Reason,
		Media:         st.CloneMedia(),
		Fingerprint:   st.Fingerprint(),
		DroppedBlocks: res.DroppedBlocks,
		TornBlocks:    res.TornBlocks,
	}
	if s.RT != nil {
		img.WBErrors = s.RT.WBErrorSnapshot()
	}
	return img
}

// Recover boots a fresh System from a crash image: the device adopts the
// durable media before anything touches it, the page cache starts cold, and
// the Aquila runtime re-seeds per-file errseq state from the image so
// unreported pre-crash writeback errors surface exactly once after restart.
// opts is typically the crashed System's Opts (same device, cache, seed).
func Recover(opts Options, img *CrashImage) *System {
	opts.restoreMedia = img.Media
	opts.restoreWBErr = img.WBErrors
	return New(opts)
}
