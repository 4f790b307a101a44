package device

// NVMeConfig parameterizes the NVMe timing model. Defaults model the Intel
// Optane SSD DC P4800X of the paper's testbed (§5), in cycles at 2.4 GHz.
type NVMeConfig struct {
	// ReadLatency is the device-internal access latency for reads
	// (~10 us on the P4800X => 24000 cycles).
	ReadLatency uint64
	// WriteLatency is the access latency for writes.
	WriteLatency uint64
	// ServiceInterval is the minimum cycles between operation completions,
	// capping IOPS (550 K IOPS => ~4363 cycles).
	ServiceInterval uint64
	// CyclesPerByte caps sequential bandwidth (2.4 GB/s at 2.4 GHz =>
	// ~1 cycle/byte).
	CyclesPerByte float64
}

// DefaultNVMeConfig returns the Optane P4800X-class model.
func DefaultNVMeConfig() NVMeConfig {
	return NVMeConfig{
		ReadLatency:     24000,
		WriteLatency:    24000,
		ServiceInterval: 4363,
		CyclesPerByte:   1.0,
	}
}

// NVMe is a block device with a queueing timing model and sparse content.
// An operation submitted at time t starts service when the device's internal
// pipeline has a free slot and completes after the access latency; sustained
// load is capped by both an IOPS service interval and a bandwidth term.
type NVMe struct {
	*Store
	cfg      NVMeConfig
	nextFree uint64
	// busyCycles integrates service time, for utilization reporting.
	busyCycles uint64
}

// NewNVMe creates an NVMe device with the given capacity and timing config.
func NewNVMe(capacity uint64, cfg NVMeConfig) *NVMe {
	return &NVMe{Store: NewStore(capacity), cfg: cfg}
}

// Submit implements Timing.
func (d *NVMe) Submit(now uint64, bytes int, write bool) uint64 {
	d.settle(now)
	service := d.cfg.ServiceInterval
	if bw := uint64(float64(bytes) * d.cfg.CyclesPerByte); bw > service {
		service = bw
	}
	start := now
	if d.nextFree > start {
		start = d.nextFree
	}
	d.nextFree = start + service
	d.busyCycles += service
	lat := d.cfg.ReadLatency
	if write {
		lat = d.cfg.WriteLatency
	}
	completion := start + lat
	if min := start + service; completion < min {
		completion = min
	}
	d.obs.record(now, start, completion, write)
	return completion
}

// Utilization returns the fraction of [0, horizon] the device was busy.
func (d *NVMe) Utilization(horizon uint64) float64 {
	if horizon == 0 {
		return 0
	}
	return float64(d.busyCycles) / float64(horizon)
}
