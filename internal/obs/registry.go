package obs

import (
	"encoding/json"
	"io"
	"strings"
)

// Label is one name=value metric dimension.
type Label struct {
	Key, Value string
}

// L constructs a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKey renders name{k=v,...} with labels in the given order. Callers
// are expected to pass labels in a consistent order; the key is the identity.
func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Counter is a monotonically increasing uint64 metric. The zero of a nil
// *Counter is a no-op sink, so disabled instrumentation costs one nil check.
type Counter struct{ v uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Set overwrites the counter value (re-publishing externally tracked stats).
func (c *Counter) Set(n uint64) {
	if c != nil {
		c.v = n
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time float64 metric; nil-safe like Counter.
type Gauge struct{ v float64 }

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the last set value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Registry is the central metric store: named (optionally labeled) counters,
// gauges, histograms and breakdowns. Lookups intern the metric on first use,
// so call sites can re-resolve by name or keep the returned pointer for the
// hot path. A nil *Registry hands out nil metrics, which swallow writes —
// the zero-cost off switch.
//
// Like the rest of the package, Registry is single-execution (DES) and takes
// no locks.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	breaks   map[string]*Breakdown
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		breaks:   make(map[string]*Breakdown),
	}
}

// Counter interns and returns the counter with the given name and labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	k := metricKey(name, labels)
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge interns and returns the gauge with the given name and labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	k := metricKey(name, labels)
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram interns and returns the histogram with the given name and
// labels. Returns nil on a nil registry: histogram call sites guard with a
// nil check (Histogram methods are not nil-safe, they return data).
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	k := metricKey(name, labels)
	h, ok := r.hists[k]
	if !ok {
		h = NewHistogram()
		r.hists[k] = h
	}
	return h
}

// Breakdown interns and returns the breakdown with the given name and
// labels. Breakdown.Add is nil-safe, so call sites need no guard.
func (r *Registry) Breakdown(name string, labels ...Label) *Breakdown {
	if r == nil {
		return nil
	}
	k := metricKey(name, labels)
	b, ok := r.breaks[k]
	if !ok {
		b = NewBreakdown()
		r.breaks[k] = b
	}
	return b
}

// Snapshot is a deep-copied, JSON-encodable view of a registry at one
// instant. Maps are keyed by the rendered metric key (name{k=v,...}).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]Summary           `json:"histograms,omitempty"`
	Breakdowns map[string]map[string]uint64 `json:"breakdowns,omitempty"`
}

// Snapshot captures the current state of every metric.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	if r == nil {
		return s
	}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for k, c := range r.counters {
			s.Counters[k] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for k, g := range r.gauges {
			s.Gauges[k] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]Summary, len(r.hists))
		for k, h := range r.hists {
			s.Histograms[k] = h.Summarize()
		}
	}
	if len(r.breaks) > 0 {
		s.Breakdowns = make(map[string]map[string]uint64, len(r.breaks))
		for k, b := range r.breaks {
			s.Breakdowns[k] = b.Map()
		}
	}
	return s
}

// WriteJSON encodes the snapshot as indented JSON. encoding/json sorts map
// keys, so the output is deterministic.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteJSON snapshots the registry and encodes it as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error { return r.Snapshot().WriteJSON(w) }
