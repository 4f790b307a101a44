package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

const subBucketBits = 4 // 16 sub-buckets per power of two: ~6% resolution

// Histogram is a log-bucketed histogram of uint64 samples (cycles). It is
// HDR-like: constant memory, bounded relative error, exact count/sum/min/max.
type Histogram struct {
	buckets map[uint32]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make(map[uint32]uint64), min: math.MaxUint64}
}

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) uint32 {
	if v < 1<<subBucketBits {
		return uint32(v)
	}
	msb := 63 - bits.LeadingZeros64(v)
	shift := msb - subBucketBits
	sub := uint32(v>>uint(shift)) & ((1 << subBucketBits) - 1)
	return uint32(msb+1)<<subBucketBits | sub
}

// bucketLow returns the smallest value mapping to bucket b (used as the
// representative value when reporting quantiles).
func bucketLow(b uint32) uint64 {
	exp := b >> subBucketBits
	if exp == 0 {
		return uint64(b)
	}
	msb := int(exp) - 1
	sub := uint64(b & ((1 << subBucketBits) - 1))
	return 1<<uint(msb) | sub<<uint(msb-subBucketBits)
}

// Record adds one sample.
func (h *Histogram) Record(v uint64) {
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample.
func (h *Histogram) Max() uint64 { return h.max }

// Quantile returns an approximation of the q-quantile, accurate to the
// bucket resolution, always within [Min, Max]. The exact min is returned for
// q <= 0 (and NaN), the exact max for q >= 1, and the empty histogram
// reports 0 for every q.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if math.IsNaN(q) || q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	keys := make([]uint32, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var seen uint64
	v := h.max
	for _, k := range keys {
		seen += h.buckets[k]
		if seen > target {
			v = bucketLow(k)
			break
		}
	}
	// Clamp to the exact observed range: the representative bucketLow of the
	// first/last bucket can undershoot min (single-sample histograms, q→0).
	if v < h.min {
		v = h.min
	}
	if v > h.max {
		v = h.max
	}
	return v
}

// P99 is Quantile(0.99); P999 is Quantile(0.999).
func (h *Histogram) P99() uint64  { return h.Quantile(0.99) }
func (h *Histogram) P999() uint64 { return h.Quantile(0.999) }

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	for k, c := range other.buckets {
		h.buckets[k] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.count > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.0f p99=%d p99.9=%d max=%d",
		h.count, h.Mean(), h.P99(), h.P999(), h.max)
}

// Summary condenses a histogram for snapshots and reports.
type Summary struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   uint64  `json:"min"`
	Max   uint64  `json:"max"`
	P50   uint64  `json:"p50"`
	P90   uint64  `json:"p90"`
	P99   uint64  `json:"p99"`
	P999  uint64  `json:"p999"`
}

// Summarize extracts the snapshot summary of a histogram.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(),
		Min: h.Min(), Max: h.Max(),
		P50: h.Quantile(0.5), P90: h.Quantile(0.9),
		P99: h.P99(), P999: h.P999(),
	}
}
