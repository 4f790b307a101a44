package main

import (
	"time"

	"aquila"
	"aquila/internal/graph"
	"aquila/internal/iface"
	"aquila/internal/obs"
	"aquila/internal/ycsb"
)

// The traced repetition wraps every layer boundary the benchmark can reach
// from outside (workload op → ycsb.KV / graph.Heap → iface.Mapping /
// iface.File) in a decorator that records a span on both clocks. Below the
// mmio boundary the program's own spans (obs.Tracer, profile.Profiler) take
// over on the simulated clock; host time below it comes from the micro-loops.

// keptOps is how many operations keep their full spans; later operations
// only feed the per-name aggregates.
const keptOps = 50000

// span is one closed interval at a layer boundary.
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Parent int32  `json:"parent"` // index into recorder.kept, -1 for an op's root span
	Thread int    `json:"thread"` // simulated process id
	// Simulated cycles (Proc.Now) and host nanoseconds since the measured
	// phase began.
	SimBegin  uint64 `json:"sim_begin"`
	SimEnd    uint64 `json:"sim_end"`
	HostBegin int64  `json:"host_begin_ns"`
	HostEnd   int64  `json:"host_end_ns"`
}

// boundaryAgg aggregates every span of one name. Self time is the span
// minus the part its child spans cover.
type boundaryAgg struct {
	Count      uint64 `json:"count"`
	SimCycles  uint64 `json:"sim_cycles"`
	SimSelf    uint64 `json:"sim_self_cycles"`
	HostNs     int64  `json:"host_ns"`
	HostSelfNs int64  `json:"host_self_ns"`
	selfHist   *obs.Histogram
}

type openSpan struct {
	name      string
	simBegin  uint64
	hostBegin int64
	childSim  uint64
	childHost int64
	kept      int32 // index reserved in recorder.kept, -1 when not kept
}

type procSpans struct {
	stack []openSpan
	op    uint64
}

// recorder collects the benchmark's own spans. Simulated processes run one
// at a time (the engine's baton orders them), so it takes no lock.
type recorder struct {
	// on is false during set-up: spans start with the measured phase.
	on    bool
	t0    time.Time
	procs map[*aquila.Proc]*procSpans
	ops   uint64
	kept  []span
	aggs  map[string]*boundaryAgg
	// phase is aggs as it stood when the measured phase ended: the metrics
	// read it, so verification's own accesses do not count.
	phase map[string]*boundaryAgg
}

func newRecorder() *recorder {
	return &recorder{procs: make(map[*aquila.Proc]*procSpans), aggs: make(map[string]*boundaryAgg)}
}

// startPhase switches recording on; host times count from here.
func (r *recorder) startPhase() {
	if r != nil {
		r.on, r.t0 = true, time.Now()
	}
}

// begin opens a span on p's stack. A nil recorder records nothing, so
// workload loops call it unconditionally.
func (r *recorder) begin(p *aquila.Proc, name string) {
	if r == nil || !r.on {
		return
	}
	ps := r.procs[p]
	if ps == nil {
		ps = &procSpans{}
		r.procs[p] = ps
	}
	if len(ps.stack) == 0 {
		ps.op = r.ops
		r.ops++
	}
	o := openSpan{name: name, simBegin: p.Now(), kept: -1}
	if ps.op < keptOps {
		parent := int32(-1)
		if n := len(ps.stack); n > 0 {
			parent = ps.stack[n-1].kept
		}
		o.kept = int32(len(r.kept))
		r.kept = append(r.kept, span{Name: name, Op: ps.op, Parent: parent, Thread: p.ID()})
	}
	o.hostBegin = int64(time.Since(r.t0))
	ps.stack = append(ps.stack, o)
}

// end closes the innermost span p has open.
func (r *recorder) end(p *aquila.Proc) {
	if r == nil || !r.on {
		return
	}
	hostEnd := int64(time.Since(r.t0))
	ps := r.procs[p]
	n := len(ps.stack) - 1
	o := ps.stack[n]
	ps.stack = ps.stack[:n]
	sim, host := p.Now()-o.simBegin, hostEnd-o.hostBegin
	if n > 0 {
		ps.stack[n-1].childSim += sim
		ps.stack[n-1].childHost += host
	}
	a := r.aggs[o.name]
	if a == nil {
		a = &boundaryAgg{selfHist: obs.NewHistogram()}
		r.aggs[o.name] = a
	}
	a.Count++
	a.SimCycles += sim
	a.SimSelf += sim - o.childSim
	a.HostNs += host
	a.HostSelfNs += host - o.childHost
	a.selfHist.Record(sim - o.childSim)
	if o.kept >= 0 {
		s := &r.kept[o.kept]
		s.SimBegin, s.SimEnd, s.HostBegin, s.HostEnd = o.simBegin, p.Now(), o.hostBegin, hostEnd
	}
}

// endPhase freezes the aggregates the metrics are read from.
func (r *recorder) endPhase() {
	if r == nil {
		return
	}
	r.phase = make(map[string]*boundaryAgg, len(r.aggs))
	for name, a := range r.aggs {
		c := *a
		c.selfHist = obs.NewHistogram()
		c.selfHist.Merge(a.selfHist)
		r.phase[name] = &c
	}
}

// count returns how many spans of the given names closed in the phase.
func (r *recorder) count(names ...string) uint64 {
	var n uint64
	for _, name := range names {
		if a := r.phase[name]; a != nil {
			n += a.Count
		}
	}
	return n
}

// selfP50 returns the median self cycles of one span name (0 when absent).
func (r *recorder) selfP50(name string) float64 {
	if a := r.phase[name]; a != nil {
		return float64(a.selfHist.Quantile(0.5))
	}
	return 0
}

// addTo mirrors the kept spans onto a track group of the program's tracer so
// one Chrome trace shows the benchmark's boundaries above the program's own
// spans, on the simulated clock.
func (r *recorder) addTo(tr *obs.Tracer) {
	pid := tr.RegisterProcess("bench/boundaries")
	for _, s := range r.kept {
		tr.Add(obs.Span{Name: s.Name, Cat: "bench", PID: pid, TID: s.Thread, Begin: s.SimBegin, End: s.SimEnd})
	}
}

// tracedMapping records the mmio boundary.
type tracedMapping struct {
	iface.Mapping
	rec *recorder
}

func (m tracedMapping) Load(p *aquila.Proc, off uint64, buf []byte) {
	m.rec.begin(p, "mmio.load")
	defer m.rec.end(p)
	m.Mapping.Load(p, off, buf)
}

func (m tracedMapping) Store(p *aquila.Proc, off uint64, buf []byte) {
	m.rec.begin(p, "mmio.store")
	defer m.rec.end(p)
	m.Mapping.Store(p, off, buf)
}

func (m tracedMapping) Msync(p *aquila.Proc) error {
	m.rec.begin(p, "mmio.msync")
	defer m.rec.end(p)
	return m.Mapping.Msync(p)
}

func (m tracedMapping) MsyncRange(p *aquila.Proc, off, length uint64) error {
	m.rec.begin(p, "mmio.msync")
	defer m.rec.end(p)
	return m.Mapping.MsyncRange(p, off, length)
}

// tracedFile records the explicit-I/O boundary.
type tracedFile struct {
	iface.File
	rec *recorder
}

func (f tracedFile) Pread(p *aquila.Proc, buf []byte, off uint64) error {
	f.rec.begin(p, "file.pread")
	defer f.rec.end(p)
	return f.File.Pread(p, buf, off)
}

func (f tracedFile) Pwrite(p *aquila.Proc, buf []byte, off uint64) error {
	f.rec.begin(p, "file.pwrite")
	defer f.rec.end(p)
	return f.File.Pwrite(p, buf, off)
}

func (f tracedFile) Fsync(p *aquila.Proc) error {
	f.rec.begin(p, "file.fsync")
	defer f.rec.end(p)
	return f.File.Fsync(p)
}

// tracedKV records the key-value boundary.
type tracedKV struct {
	kv  ycsb.KV
	rec *recorder
}

func (k tracedKV) Get(p *aquila.Proc, key []byte) ([]byte, bool) {
	k.rec.begin(p, "kv.get")
	defer k.rec.end(p)
	return k.kv.Get(p, key)
}

func (k tracedKV) Put(p *aquila.Proc, key, value []byte) {
	k.rec.begin(p, "kv.put")
	defer k.rec.end(p)
	k.kv.Put(p, key, value)
}

func (k tracedKV) Scan(p *aquila.Proc, startKey []byte, n int) int {
	k.rec.begin(p, "kv.scan")
	defer k.rec.end(p)
	return k.kv.Scan(p, startKey, n)
}

// tracedHeap records the graph-heap boundary.
type tracedHeap struct {
	graph.Heap
	rec *recorder
}

func (h tracedHeap) Load(p *aquila.Proc, off uint64, buf []byte) {
	h.rec.begin(p, "graph.load")
	defer h.rec.end(p)
	h.Heap.Load(p, off, buf)
}

func (h tracedHeap) Store(p *aquila.Proc, off uint64, buf []byte) {
	h.rec.begin(p, "graph.store")
	defer h.rec.end(p)
	h.Heap.Store(p, off, buf)
}

// The wrap helpers return the raw object when tracing is off, so the
// untraced repetition runs the program exactly as an application would.

func wrapMapping(m iface.Mapping, rec *recorder) iface.Mapping {
	if rec == nil {
		return m
	}
	return tracedMapping{m, rec}
}

func wrapFile(f iface.File, rec *recorder) iface.File {
	if rec == nil {
		return f
	}
	return tracedFile{f, rec}
}

func wrapKV(kv ycsb.KV, rec *recorder) ycsb.KV {
	if rec == nil {
		return kv
	}
	return tracedKV{kv, rec}
}

func wrapHeap(h graph.Heap, rec *recorder) graph.Heap {
	if rec == nil {
		return h
	}
	return tracedHeap{h, rec}
}
