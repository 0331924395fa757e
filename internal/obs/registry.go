// Package obs is the zero-dependency telemetry layer: a process-wide
// metrics registry (atomic counters, gauges, fixed-bucket histograms)
// exposed in Prometheus text format, plus
// per-job stage timelines threaded through contexts.
//
// Design constraints, in order:
//
//   - No third-party modules. The registry implements the minimal subset
//     of the Prometheus data model the serving layer and load harness
//     need: counter, gauge, histogram, with flat label sets.
//   - Hot paths pay one atomic op. Counter.Add and Histogram.Observe are
//     lock-free; registration (which takes a mutex) happens once per
//     metric, at package init or service construction.
//   - Latency is exported as distributions, never point estimates: the
//     Su et al. uncertainty caveat adopted in PR 5 applies to serving
//     metrics too, so histograms carry full bucket vectors from which
//     p50/p95/p99 are derivable (Prometheus' histogram_quantile works off
//     the buckets).
//   - Func-backed metrics (CounterFunc, GaugeFunc) read existing sources
//     of truth (harness.SimCount, queue lengths, breaker state) instead
//     of duplicating them; re-registering one replaces the callback, so
//     services rebuilt in tests always expose the live instance.
//
// Metric naming follows the Prometheus convention, namespaced under
// pythia_<subsystem>_: pythia_serve_* (job lifecycle), pythia_store_*
// (content-addressed stores, labeled by store), pythia_stream_* (trace
// delivery pipeline), pythia_sim_* (simulation kernel), pythia_http_*
// (request routing). DESIGN.md "Observability" documents every signal.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric.
type Label struct {
	Name  string
	Value string
}

// Labels is an ordered label set. Order is preserved as given; identity
// (for registration and lookup) is the ordered (name,value) sequence.
type Labels []Label

// L builds a Labels from alternating name, value pairs; an odd trailing
// name is dropped.
func L(pairs ...string) Labels {
	ls := make(Labels, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		ls = append(ls, Label{Name: pairs[i], Value: pairs[i+1]})
	}
	return ls
}

// key renders the identity of a label set.
func (ls Labels) key() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

// Get returns the value of a label by name ("" when absent).
func (ls Labels) Get(name string) string {
	for _, l := range ls {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Counter is a monotonically increasing metric. The zero value is usable
// but unregistered; obtain registered counters from a Registry.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (CAS loop; contention is rare — gauges
// track slow-moving quantities like subscriber counts).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution: observation counts per upper
// bound plus a +Inf overflow bucket, a running sum, and a total count.
// Observe is lock-free (binary search + one atomic add per call).
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf excluded
	counts  []atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot copies the histogram's state for exposition.
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// LatencyBuckets is the default histogram bucket layout for durations in
// seconds: sub-millisecond store hits through multi-minute full-scale
// experiment renders.
var LatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// RateBuckets is the default layout for simulated-instructions-per-second
// observations: 100k/s (a pathological run) through 1G/s.
var RateBuckets = []float64{
	1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8, 1e9,
}

// metricKind discriminates what backs one registered metric.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindFunc
	kindHistogram
)

// metric is one registered (labels, backing) pair within a family.
type metric struct {
	labels  Labels
	kind    metricKind
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family groups every metric sharing one name (and therefore one type and
// help string).
type family struct {
	name    string
	help    string
	typ     string // "counter" | "gauge" | "histogram"
	metrics map[string]*metric
	order   []string // registration order of label keys
}

// Registry holds metric families and renders them for exposition. The
// zero value is not usable; use NewRegistry or the package-level Default.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that package-level helpers
// register into and /metrics exposes.
func Default() *Registry { return defaultRegistry }

// fam returns (creating if needed) the family for name. A name collision
// across types keeps the first registration's type; the caller then gets
// a detached metric (see getOrCreate) so misuse cannot corrupt exposition.
func (r *Registry) fam(name, help, typ string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, metrics: make(map[string]*metric)}
		r.families[name] = f
	}
	return f
}

// getOrCreate installs m under labels unless an entry of the right kind
// already exists (returned instead), or the family's type conflicts
// (m stays detached: usable by the caller, invisible to exposition).
func (r *Registry) getOrCreate(name, help, typ string, labels Labels, kind metricKind, mk func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, typ)
	if f.typ != typ {
		return mk()
	}
	k := labels.key()
	if m, ok := f.metrics[k]; ok && m.kind == kind {
		return m
	}
	m := mk()
	if _, ok := f.metrics[k]; !ok {
		f.order = append(f.order, k)
	}
	f.metrics[k] = m
	return m
}

// Counter returns the counter registered under name+labels, creating and
// registering it on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	m := r.getOrCreate(name, help, "counter", labels, kindCounter, func() *metric {
		return &metric{labels: labels, kind: kindCounter, counter: &Counter{}}
	})
	return m.counter
}

// Gauge returns the gauge registered under name+labels, creating and
// registering it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	m := r.getOrCreate(name, help, "gauge", labels, kindGauge, func() *metric {
		return &metric{labels: labels, kind: kindGauge, gauge: &Gauge{}}
	})
	return m.gauge
}

// CounterFunc registers (or replaces) a counter whose value is read from
// fn at exposition time — the pattern for counters that already exist as
// authoritative atomics elsewhere (harness.SimCount, journal write
// errors). Replacement semantics make re-wiring idempotent: a service
// rebuilt in tests re-registers and the callback follows the live
// instance.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.registerFunc(name, help, "counter", labels, fn)
}

// GaugeFunc registers (or replaces) a gauge whose value is read from fn
// at exposition time (queue depths, breaker states, store entry counts).
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.registerFunc(name, help, "gauge", labels, fn)
}

func (r *Registry) registerFunc(name, help, typ string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, typ)
	if f.typ != typ {
		return
	}
	k := labels.key()
	if _, ok := f.metrics[k]; !ok {
		f.order = append(f.order, k)
	}
	f.metrics[k] = &metric{labels: labels, kind: kindFunc, fn: fn}
}

// Histogram returns the histogram registered under name+labels, creating
// it with the given bucket upper bounds on first use (later calls reuse
// the first registration's buckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	m := r.getOrCreate(name, help, "histogram", labels, kindHistogram, func() *metric {
		return &metric{labels: labels, kind: kindHistogram, hist: newHistogram(buckets)}
	})
	return m.hist
}

// --- Snapshots ---

// FamilySnapshot is one metric family captured at a point in time.
type FamilySnapshot struct {
	Name    string
	Help    string
	Type    string
	Metrics []MetricSnapshot
}

// MetricSnapshot is one labeled series within a family. Hist is non-nil
// only for histogram families (Value is then unused).
type MetricSnapshot struct {
	Labels Labels
	Value  float64
	Hist   *HistSnapshot
}

// HistSnapshot is a histogram's state: per-bucket (non-cumulative)
// counts aligned with Bounds plus a final +Inf bucket, the sum of
// observations, and the total count.
type HistSnapshot struct {
	Bounds []float64
	Counts []int64
	Sum    float64
	Count  int64
}

// Gather snapshots every registered family, sorted by name (metrics keep
// registration order, which is deterministic per process). Func-backed
// metrics are evaluated here, outside the registry lock ordering concerns
// of their owners — callbacks must not re-enter the registry.
func (r *Registry) Gather() []FamilySnapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	// Copy the metric lists under the lock; values are read after release
	// so slow callbacks never stall registration.
	type pending struct {
		f  *family
		ms []*metric
	}
	pend := make([]pending, 0, len(fams))
	for _, f := range fams {
		ms := make([]*metric, 0, len(f.order))
		for _, k := range f.order {
			ms = append(ms, f.metrics[k])
		}
		pend = append(pend, pending{f: f, ms: ms})
	}
	r.mu.Unlock()

	sort.Slice(pend, func(i, j int) bool { return pend[i].f.name < pend[j].f.name })
	out := make([]FamilySnapshot, 0, len(pend))
	for _, p := range pend {
		fs := FamilySnapshot{Name: p.f.name, Help: p.f.help, Type: p.f.typ}
		for _, m := range p.ms {
			ms := MetricSnapshot{Labels: m.labels}
			switch m.kind {
			case kindCounter:
				ms.Value = float64(m.counter.Value())
			case kindGauge:
				ms.Value = m.gauge.Value()
			case kindFunc:
				ms.Value = m.fn()
			case kindHistogram:
				s := m.hist.snapshot()
				ms.Hist = &s
			}
			fs.Metrics = append(fs.Metrics, ms)
		}
		out = append(out, fs)
	}
	return out
}

// Value looks up the current value of a counter, gauge or func metric by
// name and exact label set (histograms report their observation count).
// Intended for tests and status endpoints, not hot paths.
func (r *Registry) Value(name string, labels Labels) (float64, bool) {
	r.mu.Lock()
	f, ok := r.families[name]
	var m *metric
	if ok {
		m, ok = f.metrics[labels.key()]
	}
	r.mu.Unlock()
	if !ok || m == nil {
		return 0, false
	}
	switch m.kind {
	case kindCounter:
		return float64(m.counter.Value()), true
	case kindGauge:
		return m.gauge.Value(), true
	case kindFunc:
		return m.fn(), true
	case kindHistogram:
		return float64(m.hist.Count()), true
	}
	return 0, false
}

// --- Package-level helpers over the Default registry ---

// GetCounter returns a registered counter on the default registry.
func GetCounter(name, help string, labels Labels) *Counter {
	return defaultRegistry.Counter(name, help, labels)
}

// GetGauge returns a registered gauge on the default registry.
func GetGauge(name, help string, labels Labels) *Gauge {
	return defaultRegistry.Gauge(name, help, labels)
}

// GetHistogram returns a registered histogram on the default registry.
func GetHistogram(name, help string, buckets []float64, labels Labels) *Histogram {
	return defaultRegistry.Histogram(name, help, buckets, labels)
}

// RegisterCounterFunc registers a func-backed counter on the default
// registry.
func RegisterCounterFunc(name, help string, labels Labels, fn func() float64) {
	defaultRegistry.CounterFunc(name, help, labels, fn)
}

// RegisterGaugeFunc registers a func-backed gauge on the default
// registry.
func RegisterGaugeFunc(name, help string, labels Labels, fn func() float64) {
	defaultRegistry.GaugeFunc(name, help, labels, fn)
}
