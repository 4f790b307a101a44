// Package cpu models the processor-side costs of the paper's testbed: a
// dual-socket Intel Xeon E5-2630 v3 at 2.4 GHz with VT-x, per-CPU TLBs, and
// IPI-based TLB shootdowns. All constants are cycles at 2.4 GHz.
//
// Wherever the paper reports a measurement, the cost constant is that number
// verbatim (sources cited per constant); the others are order-of-magnitude
// literature values chosen so the figure-level breakdowns reproduce the
// paper's shape.
package cpu

// Frequency of the simulated CPUs in Hz (Xeon E5-2630 v3, §5).
const FrequencyHz = 2.4e9

// CyclesToSeconds converts simulated cycles to seconds at the testbed clock.
func CyclesToSeconds(c uint64) float64 { return float64(c) / FrequencyHz }

// CyclesToMicros converts simulated cycles to microseconds.
func CyclesToMicros(c uint64) float64 { return float64(c) / (FrequencyHz / 1e6) }

// The cycle cost of each privileged operation. Where the paper reports a
// measurement the constant carries that number; the rest are standard x86
// server magnitudes.
const (
	// TrapRing3 is the full protection-domain switch of a page fault taken
	// in ring 3 (enter + iret, excluding handler work). §6.4: 1287 cycles.
	TrapRing3 uint64 = 1287
	// ExceptionRing0 is a page-fault exception taken while already in
	// (non-root) ring 0, as in Aquila. §6.4: 552 cycles.
	ExceptionRing0 uint64 = 552
	// VMExit is a single VMX non-root -> root transition. §4.4: ~750.
	VMExit uint64 = 750
	// VMEntry is the root -> non-root resume. Symmetric to VMExit.
	VMEntry uint64 = 750
	// Syscall is the bare ring3 syscall enter+exit transition.
	Syscall uint64 = 700
	// IPISendPosted is a posted-IPI send without vmexit (§4.1, Shinjuku: 298).
	IPISendPosted uint64 = 298
	// IPISendVMExit is an IPI send that takes a vmexit for rate limiting
	// (§4.1: 2081 cycles).
	IPISendVMExit uint64 = 2081
	// IPIReceive is the receiver-side interrupt handling cost per IPI
	// (vmexit-less receive path).
	IPIReceive uint64 = 400
	// TLBInvalidatePage is one invlpg.
	TLBInvalidatePage uint64 = 100
	// TLBFlushAll is a full local TLB flush.
	TLBFlushAll uint64 = 500
	// TLBRefill is a 4-level page-table walk on a TLB miss.
	TLBRefill uint64 = 120
	// TLBRefill2M is the walk on a miss that resolves to a 2 MB leaf: one
	// level shorter than the 4 KB walk.
	TLBRefill2M uint64 = 90
	// EPTWalkExtra is the additional 2-D walk cost of a TLB refill under
	// virtualization (guest PT x EPT).
	EPTWalkExtra uint64 = 200
	// FPUSaveRestore is XSAVEOPT+FXRSTOR of AVX state (§3.3: ~300).
	FPUSaveRestore uint64 = 300
	// Memcpy4KNoSIMD is a 4 KB copy without SIMD (§3.3: ~2400).
	Memcpy4KNoSIMD uint64 = 2400
	// Memcpy4KAVX2 is a 4 KB copy with AVX2 streaming stores, excluding
	// FPU state save/restore (§3.3: ~900).
	Memcpy4KAVX2 uint64 = 900
	// PTEUpdate is writing one page-table entry (plus dcache effects).
	PTEUpdate uint64 = 60
	// ContextSwitch is a kernel context switch (blocking I/O wakeup path).
	ContextSwitch uint64 = 2000
	// InterruptDelivery is device-interrupt delivery + handler entry for
	// kernel (interrupt-driven) block I/O completion.
	InterruptDelivery uint64 = 1500
	// AtomicOp is an uncontended atomic RMW on a warm line.
	AtomicOp uint64 = 20
	// NUMARemoteAccess is the surcharge of touching a remote-node line.
	NUMARemoteAccess uint64 = 100
)

// MemcpyNoSIMD returns the cost of copying n bytes without SIMD.
func MemcpyNoSIMD(n int) uint64 {
	if n <= 0 {
		return 0
	}
	return uint64(n)*Memcpy4KNoSIMD/4096 + 1
}

// MemcpyAVX2 returns the cost of copying n bytes with AVX2 streaming stores,
// including one FPU state save/restore (paid once per fault, §3.3).
func MemcpyAVX2(n int) uint64 {
	if n <= 0 {
		return 0
	}
	return uint64(n)*Memcpy4KAVX2/4096 + FPUSaveRestore
}

// LoadStore returns the user-side cost of moving n bytes through a cached
// mapping with plain loads and stores, at DRAM bandwidth.
func LoadStore(n int) uint64 { return uint64(n)/16 + 2 }
