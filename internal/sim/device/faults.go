package device

import (
	"fmt"
	"math/rand"
	"slices"
)

// Deterministic device fault injection. A FaultPlan is a seeded schedule of
// fault rules attached to a device's content store; every I/O the engines
// above issue consults the plan via Store.Check before touching content or
// timing. Firing is a pure function of the plan (seed + rules) and the
// device's deterministic operation sequence, so a fixed-seed plan reproduces
// bit-identical failures across runs — the property the core runtime's
// error-path tests depend on.
//
// Injected faults are observable twice: in the obs layer ("dev.fault" spans
// on the device's trace track and per-kind dev_faults_injected counters) and
// through Store.InjectedFaults for registry-free tests.

// FaultKind classifies an injected device fault.
type FaultKind uint8

// Fault kinds.
const (
	// FaultTransientRead fails one read; a retry may succeed.
	FaultTransientRead FaultKind = iota
	// FaultTransientWrite fails one write; a retry may succeed.
	FaultTransientWrite
	// FaultPermanentRead marks the matched byte range bad for reads: the
	// firing read and every later read overlapping the range fail.
	FaultPermanentRead
	// FaultPermanentWrite marks the matched byte range bad for writes.
	FaultPermanentWrite
	// FaultLatencySpike delays the matched operation by Delay cycles
	// without failing it (a timeout-shaped stall).
	FaultLatencySpike
	// FaultPoison models a poisoned pmem line: like FaultPermanentRead, the
	// range becomes permanently unreadable (machine-check on load).
	FaultPoison
)

// faultKindNames are the kinds' wire names (also the obs labels).
var faultKindNames = [...]string{
	FaultTransientRead:  "transient-read",
	FaultTransientWrite: "transient-write",
	FaultPermanentRead:  "permanent-read",
	FaultPermanentWrite: "permanent-write",
	FaultLatencySpike:   "latency-spike",
	FaultPoison:         "poison",
}

// String returns the kind's wire name.
func (k FaultKind) String() string {
	if int(k) < len(faultKindNames) {
		return faultKindNames[k]
	}
	return fmt.Sprintf("kind-%d", k)
}

// MarshalText writes the kind's wire name, so plans serialize with string
// kinds.
func (k FaultKind) MarshalText() ([]byte, error) {
	if int(k) >= len(faultKindNames) {
		return nil, fmt.Errorf("device: unknown fault kind %d", k)
	}
	return []byte(faultKindNames[k]), nil
}

// UnmarshalText parses a wire name.
func (k *FaultKind) UnmarshalText(b []byte) error {
	i := slices.Index(faultKindNames[:], string(b))
	if i < 0 {
		return fmt.Errorf("device: unknown fault kind %q", b)
	}
	*k = FaultKind(i)
	return nil
}

// applies reports whether the kind matches an operation in the direction
// given: latency spikes both, the others their own.
func (k FaultKind) applies(write bool) bool {
	switch k {
	case FaultLatencySpike:
		return true
	case FaultTransientWrite, FaultPermanentWrite:
		return write
	case FaultTransientRead, FaultPermanentRead, FaultPoison:
		return !write
	}
	return false
}

// IOError is the typed error a faulted device operation returns. It carries
// the device name and the LBA-range context the layers above propagate into
// their own typed errors (core.IOFault, SIGBUS payloads).
type IOError struct {
	Kind FaultKind
	// Dev names the device ("nvme0", "pmem0").
	Dev string
	// Off/Len locate the failed operation on the device, in bytes.
	Off uint64
	Len int
}

// Error implements error.
func (e *IOError) Error() string {
	return fmt.Sprintf("device %s: %s fault at [%d,%d)", e.Dev, e.Kind, e.Off, e.Off+uint64(e.Len))
}

// Transient reports whether a retry of the same operation may succeed.
func (e *IOError) Transient() bool {
	return e.Kind == FaultTransientRead || e.Kind == FaultTransientWrite
}

// FaultRule is one scheduled fault. A rule matches an operation when the
// operation's direction suits the kind and its byte range overlaps
// [Off, Off+Len). Whether a matching operation fires is decided either by
// the deterministic count schedule (After/Every/Limit) or, when Prob > 0, by
// a seeded Bernoulli draw per matching operation. The JSON form is the
// fixture and torture-plan wire format; zero fields are left out.
type FaultRule struct {
	Kind FaultKind `json:"kind"`
	// Off/Len restrict the rule to a device byte range; Len 0 means "to the
	// end of the device" (with Off 0: the whole device).
	Off uint64 `json:"off,omitempty"`
	Len uint64 `json:"len,omitempty"`
	// After is the 1-based index of the first matching operation that can
	// fire (0 means the first). Every is the period between subsequent
	// fires (0: fire only once, at After). Limit caps total fires
	// (0: unlimited).
	After uint64 `json:"after,omitempty"`
	Every uint64 `json:"every,omitempty"`
	Limit uint64 `json:"limit,omitempty"`
	// Prob, when > 0, replaces the count schedule: each matching operation
	// fires with this probability, drawn from the plan's seeded generator.
	Prob float64 `json:"prob,omitempty"`
	// Delay is the extra latency of a FaultLatencySpike, in cycles
	// (0 derives DefaultSpikeDelay).
	Delay uint64 `json:"delay,omitempty"`
}

// DefaultSpikeDelay is the latency-spike delay when a rule leaves Delay 0
// (~20 µs at 2.4 GHz — a visible stall, not a timeout).
const DefaultSpikeDelay = 50000

// FaultPlan is a seeded set of fault rules (testdata/faultplans/*.json).
type FaultPlan struct {
	Seed  int64       `json:"seed"`
	Rules []FaultRule `json:"rules"`
}

// badRange is one permanently failed byte range.
type badRange struct {
	off  uint64
	end  uint64
	kind FaultKind
}

// ruleState is a rule plus its firing bookkeeping.
type ruleState struct {
	FaultRule
	matches uint64
	fires   uint64
}

// faultState is a plan attached to one store.
type faultState struct {
	dev      string
	rules    []*ruleState
	rng      *rand.Rand
	badRead  []badRange
	badWrite []badRange
	injected uint64
}

// InjectFaults attaches a fault plan to the device the store belongs to (nil
// detaches). name labels the device in errors. Injected faults are recorded
// through the store's instrumentation (Instrument), in either call order.
func (s *Store) InjectFaults(name string, plan *FaultPlan) {
	if plan == nil {
		s.faults = nil
		return
	}
	fs := &faultState{dev: name, rng: rand.New(rand.NewSource(plan.Seed))}
	for i := range plan.Rules {
		fs.rules = append(fs.rules, &ruleState{FaultRule: plan.Rules[i]})
	}
	s.faults = fs
}

// InjectedFaults returns how many faults the store has injected so far
// (errors plus latency spikes), for registry-free assertions.
func (s *Store) InjectedFaults() uint64 {
	if s.faults == nil {
		return 0
	}
	return s.faults.injected
}

// Check consults the fault plan for one device operation covering
// [off, off+n). It returns an extra latency (latency spikes; the caller
// stalls before submitting) and an error (the operation must fail without
// moving content; the caller still charges device timing, modeling failure
// detected at completion). With no plan attached it is a single nil check,
// so un-faulted worlds pay nothing.
func (s *Store) Check(now uint64, off uint64, n int, write bool) (delay uint64, err error) {
	if s.faults == nil {
		return 0, nil
	}
	return s.faults.check(s.obs, now, off, n, write)
}

func overlaps(off, end, rOff, rEnd uint64) bool {
	return off < rEnd && rOff < end
}

func (fs *faultState) check(o *devObs, now uint64, off uint64, n int, write bool) (uint64, error) {
	end := off + uint64(n)
	var delay uint64
	var err error
	// Permanent ranges fail every later overlapping operation.
	bad := fs.badRead
	if write {
		bad = fs.badWrite
	}
	for _, r := range bad {
		if overlaps(off, end, r.off, r.end) {
			err = &IOError{Kind: r.kind, Dev: fs.dev, Off: off, Len: n}
			fs.record(o, now, r.kind, 0)
			break
		}
	}
	for _, rs := range fs.rules {
		if !rs.Kind.applies(write) {
			continue
		}
		rEnd := rs.Off + rs.Len
		if rs.Len == 0 {
			rEnd = ^uint64(0)
		}
		if !overlaps(off, end, rs.Off, rEnd) {
			continue
		}
		rs.matches++
		if !rs.fire(fs.rng) {
			continue
		}
		rs.fires++
		switch rs.Kind {
		case FaultLatencySpike:
			d := rs.Delay
			if d == 0 {
				d = DefaultSpikeDelay
			}
			delay += d
			fs.record(o, now, rs.Kind, d)
			continue
		case FaultPermanentRead, FaultPoison:
			fs.badRead = append(fs.badRead, badRange{off: rs.Off, end: rEnd, kind: rs.Kind})
		case FaultPermanentWrite:
			fs.badWrite = append(fs.badWrite, badRange{off: rs.Off, end: rEnd, kind: rs.Kind})
		}
		if err == nil {
			err = &IOError{Kind: rs.Kind, Dev: fs.dev, Off: off, Len: n}
		}
		fs.record(o, now, rs.Kind, 0)
	}
	return delay, err
}

// fire decides whether the current (already counted) match fires.
func (rs *ruleState) fire(rng *rand.Rand) bool {
	if rs.Limit > 0 && rs.fires >= rs.Limit {
		return false
	}
	if rs.Prob > 0 {
		return rng.Float64() < rs.Prob
	}
	after := rs.After
	if after == 0 {
		after = 1
	}
	if rs.matches < after {
		return false
	}
	if rs.Every == 0 {
		return rs.matches == after
	}
	return (rs.matches-after)%rs.Every == 0
}

// record counts the injection and emits the dev.fault span/counter through
// the store's instrumentation o (nil: uninstrumented).
func (fs *faultState) record(o *devObs, now uint64, kind FaultKind, delay uint64) {
	fs.injected++
	o.fault(now, kind.String(), delay)
}
