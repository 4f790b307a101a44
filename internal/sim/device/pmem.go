package device

// PMemConfig parameterizes the byte-addressable pmem device. The paper's
// pmem block device is backed by DRAM (§5), so the media itself adds almost
// nothing; virtually all access cost is the memcpy performed by the software
// path above (kernel non-SIMD vs Aquila's AVX2 streaming copy).
type PMemConfig struct {
	// MediaLatency is a fixed per-access media latency in cycles
	// (0 for DRAM-backed pmem; ~720 for Optane DC PMM class NVM).
	MediaLatency uint64
	// CyclesPerByte is media bandwidth (0 for DRAM-backed).
	CyclesPerByte float64
}

// DefaultPMemConfig returns the DRAM-backed pmem of the paper's testbed.
func DefaultPMemConfig() PMemConfig { return PMemConfig{} }

// OptanePMMConfig returns an Optane DC Persistent Memory-class device
// (~300 ns read latency, ~3x worse than DRAM; §7.1 / Izraelevitz et al.),
// provided for the heap-extension extension experiments.
func OptanePMMConfig() PMemConfig {
	return PMemConfig{MediaLatency: 720, CyclesPerByte: 0.6}
}

// PMem is a byte-addressable device: accesses are synchronous loads/stores
// or memcpys; there is no queueing, only media cost.
type PMem struct {
	*Store
	cfg PMemConfig
}

// NewPMem creates a pmem device with the given capacity and timing config.
func NewPMem(capacity uint64, cfg PMemConfig) *PMem {
	return &PMem{Store: NewStore(capacity), cfg: cfg}
}

// Submit implements Timing: pmem access is synchronous, so the completion
// time is just now + media cost. Software memcpy cost is charged by callers.
func (d *PMem) Submit(now uint64, bytes int, write bool) uint64 {
	d.settle(now)
	completion := now + d.AccessCycles(bytes)
	d.obs.record(now, now, completion, write)
	return completion
}

// AccessCycles returns the media-side cost of moving n bytes.
func (d *PMem) AccessCycles(n int) uint64 {
	return d.cfg.MediaLatency + uint64(float64(n)*d.cfg.CyclesPerByte)
}
