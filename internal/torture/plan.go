// Package torture is the seeded torture harness behind cmd/aqtort: it
// generates random-but-reproducible operation traces (store/load/msync/
// fsync/unmap/huge-hint plus Kreon KV traffic) over every world (Aquila,
// Linux mmap, Linux O_DIRECT, kmmap) and device (pmem, NVMe), composes them
// with randomized fault and crash plans and perturbed schedules, checks every
// read and every recovered record against one executable reference of the
// mmap+msync contract (ref.go), and delta-debugs any failure down to a
// minimal JSON repro that replays byte-for-byte. Threads share files: each
// maps a file itself on its first touch.
//
// Everything a run does flows from Plan: a pure-data, JSON-serializable
// description. Execute(plan) is a deterministic function of the plan — the
// same plan always produces the same Outcome.Fingerprint — which is what
// makes shrinking and checked-in repros possible.
package torture

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"aquila/internal/sim/device"
)

// PlanVersion is bumped when the wire format or the executor's semantics
// change incompatibly; Load rejects plans from another version so a stale
// repro fails loudly instead of replaying a different run.
const PlanVersion = 2

// World names (Plan.World).
const (
	WorldAquila      = "aquila"
	WorldLinux       = "linux"
	WorldLinuxDirect = "linux-direct"
	WorldKmmap       = "kmmap"
)

// Op kinds (Op.Kind).
const (
	OpStore      = "store"       // write one slot through the mapping
	OpLoad       = "load"        // read one slot back and verify
	OpMsync      = "msync"       // full msync; nil acks what had completed when it began
	OpMsyncRange = "msync_range" // ranged msync over [Slot, Slot+N) slots
	OpFsync      = "fsync"       // fsync the file handle (error probe only)
	OpUnmap      = "unmap"       // munmap the thread's mapping; its next touch maps again
	OpHuge       = "huge"        // madvise(MADV_HUGEPAGE) the mapping
	OpKvPut      = "kv_put"      // Kreon put (thread 0 only)
	OpKvGet      = "kv_get"      // Kreon get + verify against the reference
	OpKvScan     = "kv_scan"     // Kreon scan + verify the hit count
	OpKvMsync    = "kv_msync"    // Kreon msync; acks the current KV state
)

// Op is one step of a thread's trace. Ops are partitioned by thread: thread
// T executes its ops in order, interleaved with other threads only by the
// simulator's schedule.
type Op struct {
	T    int    `json:"t"`
	Kind string `json:"kind"`
	// File/Slot address mapping ops; N is a slot count (msync_range) or a
	// scan width (kv_scan); Key addresses KV ops.
	File int `json:"file,omitempty"`
	Slot int `json:"slot,omitempty"`
	N    int `json:"n,omitempty"`
	Key  int `json:"key,omitempty"`
}

// FileSpec declares one mmapped file: Slots slotBytes-sized records. Any
// thread's ops may touch any file; a thread maps the file itself on its first
// touch, so threads share its pages through the cache.
type FileSpec struct {
	Slots int `json:"slots"`
}

// KreonSpec sizes the Kreon store driven by thread 0's kv_* ops. Only
// generated for fault-free Aquila plans: kreon.DB.Msync discards ranged-msync
// errors, so its durability acks are sound only when writeback cannot fail.
type KreonSpec struct {
	Keys  int    `json:"keys"`
	LogKB uint64 `json:"log_kb"`
	IdxKB uint64 `json:"idx_kb"`
}

// CrashSpec describes when the machine dies, in coordinates that survive
// shrinking. AtAck and OpFrac are symbolic: Execute resolves them against a
// crash-free probe run of the same plan (AtAck k = one cycle after the k'th
// msync acknowledgment; OpFrac f = after roughly f of the run's device
// content writes), so a shrunk trace re-resolves to a point that still
// exists. AtSpan triggers directly on span entry (Aquila spans).
type CrashSpec struct {
	Seed     int64   `json:"seed"`
	TearProb float64 `json:"tear_prob,omitempty"`
	AtAck    int     `json:"at_ack,omitempty"`
	OpFrac   float64 `json:"op_frac,omitempty"`
	AtSpan   string  `json:"at_span,omitempty"`
	SpanHit  uint64  `json:"span_hit,omitempty"`
}

// Plan is one torture run, fully determined: generator output, shrinker
// input/output, and the checked-in repro format are all this one type.
type Plan struct {
	Version int    `json:"version"`
	Seed    int64  `json:"seed"`
	World   string `json:"world"`
	Device  string `json:"device"` // "pmem" | "nvme"
	Threads int    `json:"threads"`
	CPUs    int    `json:"cpus"`
	// SchedPerturb selects the simulator's tie-break schedule
	// (engine.Config.SchedPerturb); 0 is the canonical spawn-order schedule.
	SchedPerturb uint64 `json:"sched_perturb,omitempty"`
	CacheKB      uint64 `json:"cache_kb"`
	// HugeDensity enables Aquila's 2 MB mmio path (Params.HugeFaultDensity).
	HugeDensity float64 `json:"huge_density,omitempty"`
	// Unsafe re-enables Params.UnsafeMsyncAtSubmit — the planted durability
	// bug the oracle battery must catch (see ProofPlan).
	Unsafe bool `json:"unsafe,omitempty"`

	Files []FileSpec `json:"files"`
	Kreon *KreonSpec `json:"kreon,omitempty"`
	// Fault is the device's fault schedule. The generator only emits
	// write-direction and latency kinds: read-direction faults and poison
	// surface as SIGBUS on loads, which is legal behavior, not an oracle
	// failure, and would drown the durability signal.
	Fault *device.FaultPlan `json:"fault,omitempty"`
	Crash *CrashSpec        `json:"crash,omitempty"`
	Ops   []Op              `json:"ops"`
}

// Validate checks cross-field consistency so a hand-edited repro fails with
// a message instead of an executor panic.
func (pl *Plan) Validate() error {
	if pl.Version != PlanVersion {
		return fmt.Errorf("torture: plan version %d, want %d", pl.Version, PlanVersion)
	}
	switch pl.World {
	case WorldAquila, WorldLinux, WorldLinuxDirect, WorldKmmap:
	default:
		return fmt.Errorf("torture: unknown world %q", pl.World)
	}
	if pl.Device != "pmem" && pl.Device != "nvme" {
		return fmt.Errorf("torture: unknown device %q", pl.Device)
	}
	if pl.Threads < 1 || pl.CPUs < 1 {
		return fmt.Errorf("torture: need threads>=1 cpus>=1 (got %d/%d)", pl.Threads, pl.CPUs)
	}
	if pl.CacheKB < 64 {
		return fmt.Errorf("torture: cache %d KB too small", pl.CacheKB)
	}
	for i, f := range pl.Files {
		if f.Slots < 1 {
			return fmt.Errorf("torture: file %d has %d slots", i, f.Slots)
		}
	}
	if pl.Kreon != nil && (pl.World != WorldAquila || pl.Fault != nil) {
		return fmt.Errorf("torture: kreon requires the aquila world and no fault plan")
	}
	for i, op := range pl.Ops {
		if op.T < 0 || op.T >= pl.Threads {
			return fmt.Errorf("torture: op %d on thread %d of %d", i, op.T, pl.Threads)
		}
		switch op.Kind {
		case OpStore, OpLoad, OpMsync, OpMsyncRange, OpFsync, OpUnmap, OpHuge:
			if op.File < 0 || op.File >= len(pl.Files) {
				return fmt.Errorf("torture: op %d file %d of %d", i, op.File, len(pl.Files))
			}
			slots := pl.Files[op.File].Slots
			if op.Slot < 0 || op.Slot >= slots {
				return fmt.Errorf("torture: op %d slot %d of file %d's %d", i, op.Slot, op.File, slots)
			}
			if op.Kind == OpMsyncRange && (op.N < 1 || op.N > slots-op.Slot) {
				return fmt.Errorf("torture: op %d msync_range [%d,%d) outside file %d's %d slots",
					i, op.Slot, op.Slot+op.N, op.File, slots)
			}
		case OpKvPut, OpKvGet, OpKvScan, OpKvMsync:
			if pl.Kreon == nil {
				return fmt.Errorf("torture: op %d is %s but the plan has no kreon store", i, op.Kind)
			}
			if op.T != 0 {
				return fmt.Errorf("torture: op %d: kv ops run on thread 0, got %d", i, op.T)
			}
			if op.Key < 0 || op.Key >= pl.Kreon.Keys {
				return fmt.Errorf("torture: op %d key %d of %d", i, op.Key, pl.Kreon.Keys)
			}
		default:
			return fmt.Errorf("torture: op %d has unknown kind %q", i, op.Kind)
		}
	}
	if cs := pl.Crash; cs != nil {
		if cs.OpFrac < 0 || cs.OpFrac > 1 {
			return fmt.Errorf("torture: crash op_frac %v outside [0,1]", cs.OpFrac)
		}
		if cs.AtAck < 0 {
			return fmt.Errorf("torture: crash at_ack %d is negative", cs.AtAck)
		}
		cp := device.CrashPlan{AtSpan: cs.AtSpan, SpanHit: cs.SpanHit, TearProb: cs.TearProb}
		if err := cp.Validate(); err != nil {
			return fmt.Errorf("torture: %w", err)
		}
	}
	return nil
}

// Save writes the plan as indented JSON (the repro fixture format).
func (pl *Plan) Save(path string) error {
	data, err := json.MarshalIndent(pl, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads and validates a plan fixture.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var pl Plan
	if err := json.Unmarshal(data, &pl); err != nil {
		return nil, fmt.Errorf("torture: %s: %w", path, err)
	}
	if err := pl.Validate(); err != nil {
		return nil, fmt.Errorf("torture: %s: %w", path, err)
	}
	return &pl, nil
}

// clone deep-copies a plan so the shrinker can mutate candidates freely.
func (pl *Plan) clone() *Plan {
	c := *pl
	c.Files = append([]FileSpec(nil), pl.Files...)
	c.Ops = append([]Op(nil), pl.Ops...)
	if pl.Kreon != nil {
		k := *pl.Kreon
		c.Kreon = &k
	}
	if pl.Fault != nil {
		f := *pl.Fault
		f.Rules = append([]device.FaultRule(nil), pl.Fault.Rules...)
		c.Fault = &f
	}
	if pl.Crash != nil {
		cr := *pl.Crash
		c.Crash = &cr
	}
	return &c
}
