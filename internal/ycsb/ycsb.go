// Package ycsb reimplements the YCSB workload generator (Cooper et al.,
// SoCC '10) as used by the paper (§5, Table 1): the six standard workloads
// A–F over uniform, zipfian and latest request distributions, with the C++
// -style direct driver (no JNI overhead to model).
package ycsb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"aquila/internal/obs"
	"aquila/internal/scratch"
	"aquila/internal/sim/engine"
)

// OpKind is one YCSB operation type.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota
	OpUpdate
	OpInsert
	OpScan
	OpReadModifyWrite
)

// String returns the YCSB name of the op.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "READ"
	case OpUpdate:
		return "UPDATE"
	case OpInsert:
		return "INSERT"
	case OpScan:
		return "SCAN"
	case OpReadModifyWrite:
		return "RMW"
	}
	return "?"
}

// Workload identifies one of the standard YCSB workloads (Table 1).
type Workload byte

// The standard workloads.
const (
	WorkloadA Workload = 'A' // 50% reads, 50% updates
	WorkloadB Workload = 'B' // 95% reads, 5% updates
	WorkloadC Workload = 'C' // 100% reads
	WorkloadD Workload = 'D' // 95% reads, 5% inserts (latest distribution)
	WorkloadE Workload = 'E' // 95% scans, 5% inserts
	WorkloadF Workload = 'F' // 50% reads, 50% read-modify-writes
)

// All lists the standard workloads in order.
var All = []Workload{WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadE, WorkloadF}

// Mix returns the operation mix of the workload (Table 1).
func (w Workload) Mix() string {
	switch w {
	case WorkloadA:
		return "50% reads, 50% updates"
	case WorkloadB:
		return "95% reads, 5% updates"
	case WorkloadC:
		return "100% reads"
	case WorkloadD:
		return "95% reads, 5% inserts"
	case WorkloadE:
		return "95% scans, 5% inserts"
	case WorkloadF:
		return "50% reads, 50% read-modify-write"
	}
	return "unknown"
}

// Distribution selects how request keys are drawn.
type Distribution int

// Request distributions.
const (
	Uniform Distribution = iota
	Zipfian
	Latest
)

// Config parameterizes a generator.
type Config struct {
	Workload     Workload
	Records      uint64 // initial dataset size
	ValueSize    int    // default 1000 (§6.1: 1 KB values)
	Distribution Distribution
	Seed         int64
}

// scanLength bounds a scan: each one reads 1..scanLength records.
const scanLength = 50

// Op is one generated operation.
type Op struct {
	Kind    OpKind
	Key     uint64
	ScanLen int
}

// Generator produces a deterministic operation stream for one thread.
type Generator struct {
	cfg     Config
	rng     *rand.Rand
	zipf    *zipfGen
	records uint64 // grows with inserts
}

// NewGenerator creates a generator; each thread should get its own with a
// distinct seed.
func NewGenerator(cfg Config) *Generator {
	if cfg.ValueSize == 0 {
		cfg.ValueSize = 1000
	}
	g := &Generator{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		records: cfg.Records,
	}
	if cfg.Distribution == Zipfian || cfg.Distribution == Latest {
		g.zipf = newZipf(cfg.Records, 0.99)
	}
	return g
}

// Records returns the current record count (grows with inserts).
func (g *Generator) Records() uint64 { return g.records }

// nextKey draws a key per the configured distribution.
func (g *Generator) nextKey() uint64 {
	switch g.cfg.Distribution {
	case Zipfian:
		// Scrambled zipfian: spread the hot keys over the key space.
		z := g.zipf.next(g.rng)
		return fnvHash(z) % g.records
	case Latest:
		// Most recent records are hottest.
		z := g.zipf.next(g.rng)
		if z >= g.records {
			z = g.records - 1
		}
		return g.records - 1 - z
	default:
		return uint64(g.rng.Int63n(int64(g.records)))
	}
}

// Next draws the next operation.
func (g *Generator) Next() Op {
	r := g.rng.Float64()
	var kind OpKind
	switch g.cfg.Workload {
	case WorkloadA:
		if r < 0.5 {
			kind = OpRead
		} else {
			kind = OpUpdate
		}
	case WorkloadB:
		if r < 0.95 {
			kind = OpRead
		} else {
			kind = OpUpdate
		}
	case WorkloadC:
		kind = OpRead
	case WorkloadD:
		if r < 0.95 {
			kind = OpRead
		} else {
			kind = OpInsert
		}
	case WorkloadE:
		if r < 0.95 {
			kind = OpScan
		} else {
			kind = OpInsert
		}
	case WorkloadF:
		if r < 0.5 {
			kind = OpRead
		} else {
			kind = OpReadModifyWrite
		}
	default:
		panic(fmt.Sprintf("ycsb: unknown workload %c", g.cfg.Workload))
	}
	switch kind {
	case OpInsert:
		k := g.records
		g.records++
		return Op{Kind: kind, Key: k}
	case OpScan:
		return Op{Kind: kind, Key: g.nextKey(), ScanLen: 1 + g.rng.Intn(scanLength)}
	default:
		return Op{Kind: kind, Key: g.nextKey()}
	}
}

// A key is 30 bytes: this prefix, five zero bytes, the big-endian id.
const (
	keyPrefix = "user:ycsb:record:"
	keySize   = 30
)

// KeyBytes encodes a record key (fixed 30-byte keys as in §6.1, with the
// numeric id in the trailing 8 bytes so ordering matches id order). The key
// is carved from the package's arena with cap == len: the caller's to keep
// and to write, and an append to it moves it.
func KeyBytes(id uint64) []byte { return AppendKey(carve(keySize), id) }

// AppendKey appends the key KeyBytes(id) returns to dst: a driver that issues
// one operation at a time encodes every key into the same buffer.
func AppendKey(dst []byte, id uint64) []byte {
	dst = append(dst, keyPrefix...)
	dst = append(dst, 0, 0, 0, 0, 0)
	return binary.BigEndian.AppendUint64(dst, id)
}

// KeyID decodes a record key back to its id.
func KeyID(k []byte) uint64 { return binary.BigEndian.Uint64(k[22:]) }

// valuePeriod is the body of every value: byte i of a value is
// (id + i) % 251, so past the id the bytes repeat this table from some phase.
var valuePeriod = func() (t [251]byte) {
	for i := range t {
		t[i] = byte(i)
	}
	return t
}()

// Value builds a deterministic value for a record id: the id in the first
// eight bytes, then byte i = (id + i) % 251. Like KeyBytes, it is carved from
// the package's arena with cap == len.
func Value(id uint64, size int) []byte { return AppendValue(carve(size), id, size) }

// arena backs KeyBytes and Value, so a caller that makes a fresh key or value
// per operation pays a 32 KB chunk now and then instead of an allocation each
// time. A kept key or value keeps its chunk alive. The lock is for callers on
// several goroutines at once (the package's tests are some); it guards host
// memory only, and nothing simulated depends on it.
var arena struct {
	sync.Mutex
	scratch.Arena
}

// carve returns an empty slice with cap n from the arena, to be appended to.
// The unlock is deferred so that a negative n, which panics in Alloc, does not
// leave the arena locked.
func carve(n int) []byte {
	arena.Lock()
	defer arena.Unlock()
	return arena.Alloc(n)[:0]
}

// AppendValue appends the value Value(id, size) returns to dst.
func AppendValue(dst []byte, id uint64, size int) []byte {
	n := len(dst)
	dst = slices.Grow(dst, size)[:n+size]
	v := dst[n:]
	binary.BigEndian.PutUint64(v, id)
	body, c := v[8:], id+8
	// id + i is uint64 arithmetic: where it wraps to zero the phase jumps
	// (2^64 is no multiple of 251), so the body is filled in two runs.
	if wrap := -c; c != 0 && wrap < uint64(len(body)) {
		fillPeriodic(body[:wrap], c)
		body, c = body[wrap:], 0
	}
	fillPeriodic(body, c)
	return dst
}

// fillPeriodic sets b[k] = (c + k) % 251, c + k not wrapping: one pass over
// the period table from phase c % 251, then b doubles itself.
func fillPeriodic(b []byte, c uint64) {
	ph := int(c % uint64(len(valuePeriod)))
	n := copy(b, valuePeriod[ph:])
	n += copy(b[n:], valuePeriod[:ph])
	for n < len(b) {
		n += copy(b[n:], b[:n])
	}
}

// CheckValue verifies a value matches its record id (data-integrity checks
// in tests).
func CheckValue(id uint64, v []byte) bool {
	if len(v) < 8 {
		return false
	}
	return binary.BigEndian.Uint64(v) == id
}

// KV is the store interface YCSB drives. Both key-value stores in this
// repository (the RocksDB-like LSM and the Kreon-like store) implement it.
//
// Buffer ownership: Put copies what it keeps, so key and value are the
// caller's again — to overwrite — as soon as Put returns, and Get and Scan
// keep nothing of the key they are handed. Get's result is the caller's to
// keep: the store never writes to those bytes again. It may still share them
// with the store (the LSM returns a memtable hit without copying it), so
// the caller reads it and does not write to it. Both stores carve a result
// read from their files out of a value arena's chunk (scratch.Arena), with
// cap == len: an append moves it, and a kept result keeps its chunk, up to
// 32 KB, alive.
type KV interface {
	Get(p *engine.Proc, key []byte) ([]byte, bool)
	Put(p *engine.Proc, key, value []byte)
	Scan(p *engine.Proc, startKey []byte, n int) int
}

// Result aggregates a run.
type Result struct {
	Ops    uint64
	Cycles uint64
	Lat    *obs.Histogram
	Misses uint64 // reads of missing keys (should be 0)
}

// RunThread executes `ops` operations from g against kv on the calling
// simulated thread, recording per-op latency. Every key and value is encoded
// into the same two buffers (KV: Put copies what it keeps).
func RunThread(p *engine.Proc, kv KV, g *Generator, ops uint64) Result {
	res := Result{Lat: obs.NewHistogram()}
	var key, val []byte
	start := p.Now()
	for i := uint64(0); i < ops; i++ {
		op := g.Next()
		t0 := p.Now()
		key = AppendKey(key[:0], op.Key)
		switch op.Kind {
		case OpRead:
			if _, ok := kv.Get(p, key); !ok {
				res.Misses++
			}
		case OpUpdate, OpInsert:
			val = AppendValue(val[:0], op.Key, g.cfg.ValueSize)
			kv.Put(p, key, val)
		case OpScan:
			kv.Scan(p, key, op.ScanLen)
		case OpReadModifyWrite:
			if _, ok := kv.Get(p, key); !ok {
				res.Misses++
			}
			val = AppendValue(val[:0], op.Key, g.cfg.ValueSize)
			kv.Put(p, key, val)
		}
		res.Lat.Record(p.Now() - t0)
		res.Ops++
	}
	res.Cycles = p.Now() - start
	return res
}

// zipfGen is the YCSB zipfian generator (Gray et al. rejection inversion as
// used by YCSB core), theta=0.99.
type zipfGen struct {
	n               uint64
	theta           float64
	alpha, zetan    float64
	eta, zeta2theta float64
	// second is 1 + 0.5^theta: a draw whose u·zetan falls in [1, second) is
	// the second key.
	second float64
}

func newZipf(n uint64, theta float64) *zipfGen {
	if n == 0 {
		n = 1
	}
	z := &zipfGen{n: n, theta: theta}
	z.zetan = zetaStatic(n, theta)
	z.zeta2theta = zetaStatic(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	z.second = 1.0 + math.Pow(0.5, theta)
	return z
}

func zetaStatic(n uint64, theta float64) float64 {
	// For large n use the integral approximation to keep setup O(1)-ish.
	if n <= 10000 {
		sum := 0.0
		for i := uint64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	head := zetaStatic(10000, theta)
	// integral of x^-theta from 10000 to n
	tail := (math.Pow(float64(n), 1-theta) - math.Pow(10000, 1-theta)) / (1 - theta)
	return head + tail
}

func (z *zipfGen) next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.second {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

func fnvHash(x uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	return h
}
