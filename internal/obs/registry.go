// Package obs is the observability substrate of the partitioner: a
// dependency-free metrics registry (counters, gauges, histograms with fixed
// deterministic bucket bounds), exposed as Prometheus text and as a JSON
// snapshot behind an opt-in HTTP endpoint that also mounts net/http/pprof,
// plus the structured RunReport of a pipeline run.
//
// Everything here is pull-based and lock-cheap: stored metrics are atomics,
// func-backed metrics read their source (transport counters, arena gauges)
// only at collection time, and nothing in the package is on the pipeline's
// hot path unless an observer is explicitly attached.
package obs

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// metricType enumerates the Prometheus metric types the registry supports.
type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("obs.metricType(%d)", int(t))
	}
}

// Registry is a set of named metric families. All methods are safe for
// concurrent use; registration methods are get-or-create and panic only on a
// programmer error (re-registering a name with a different type, label set,
// or bucket bounds). The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with its children (one per label-value tuple).
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string
	bounds []float64 // histogram bucket upper bounds, strictly increasing

	mu       sync.Mutex
	children map[string]*metric
}

// metric is one child of a family: either a stored atomic value, a pull
// function, or a histogram.
type metric struct {
	labelVals []string

	bits atomic.Uint64  // float64 bits of a stored counter/gauge
	fn   func() float64 // pull source; nil for stored metrics

	counts  []int64 // histogram bucket counts (len(bounds)+1, last = +Inf); atomic
	sumBits atomic.Uint64
	count   atomic.Int64
}

// value returns the metric's current scalar value.
func (m *metric) value() float64 {
	if m.fn != nil {
		return m.fn()
	}
	return math.Float64frombits(m.bits.Load())
}

// addFloat atomically adds v to the float64 stored in bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// family resolves (or registers) a family, checking the signature.
// Signature clashes are registration-site bugs, caught at startup.
//
//kappa:invariant metric registration is static; a clash is a programmer error
func (r *Registry) family(name, help string, typ metricType, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) || !equalFloats(f.bounds, bounds) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different signature", name))
		}
		return f
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: metric %q has non-increasing bucket bounds", name))
		}
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]*metric),
	}
	r.families[name] = f
	return f
}

// child resolves (or creates) the child for the given label values.
//
//kappa:invariant label arity is fixed at the registration site
func (f *family) child(values []string) *metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	m := &metric{labelVals: append([]string(nil), values...)}
	if f.typ == typeHistogram {
		m.counts = make([]int64, len(f.bounds)+1)
	}
	f.children[key] = m
	return m
}

// bindFunc registers fn as a pull child; duplicate bindings are a
// programmer error.
//
//kappa:invariant pull bindings are static registration-time wiring
func (f *family) bindFunc(fn func() float64, values []string) {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.children[key]; dup {
		panic(fmt.Sprintf("obs: metric %q{%s} already registered", f.name, key))
	}
	f.children[key] = &metric{labelVals: append([]string(nil), values...), fn: fn}
}

// labelKey joins label values into a map key; 0x1f cannot occur in a sane
// label value and keeps distinct tuples distinct.
func labelKey(values []string) string {
	key := ""
	for i, v := range values {
		if i > 0 {
			key += "\x1f"
		}
		key += v
	}
	return key
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing stored metric.
type Counter struct{ m *metric }

// Add adds v (v must be >= 0 for the counter contract to hold; the registry
// does not enforce it).
func (c *Counter) Add(v float64) { addFloat(&c.m.bits, v) }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current value (for tests and reports).
func (c *Counter) Value() float64 { return c.m.value() }

// Gauge is a stored metric that can go up and down.
type Gauge struct{ m *metric }

// Set stores v.
func (g *Gauge) Set(v float64) { g.m.bits.Store(math.Float64bits(v)) }

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) { addFloat(&g.m.bits, v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.m.value() }

// Histogram is a stored metric counting observations into fixed buckets.
type Histogram struct {
	m      *metric
	bounds []float64
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are short (≤ ~20) and the scan avoids the
	// branch-misses of a binary search on tiny arrays.
	i := len(h.bounds)
	for b, ub := range h.bounds {
		if v <= ub {
			i = b
			break
		}
	}
	atomic.AddInt64(&h.m.counts[i], 1)
	addFloat(&h.m.sumBits, v)
	h.m.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.m.count.Load() }

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// Counter registers (or returns) the unlabeled counter name.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{r.family(name, help, typeCounter, nil, nil).child(nil)}
}

// Gauge registers (or returns) the unlabeled gauge name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{r.family(name, help, typeGauge, nil, nil).child(nil)}
}

// Histogram registers (or returns) the unlabeled histogram name with the
// given bucket upper bounds (strictly increasing; a +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.family(name, help, typeHistogram, nil, bounds)
	return &Histogram{m: f.child(nil), bounds: f.bounds}
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, typeCounter, labels, nil)}
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter { return &Counter{v.f.child(values)} }

// Func registers fn as the child for the given label values: its value is
// read at every collection. The function must be safe for concurrent use.
func (v *CounterVec) Func(fn func() float64, values ...string) { v.f.bindFunc(fn, values) }

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, typeGauge, labels, nil)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return &Gauge{v.f.child(values)} }

// Func registers fn as the child for the given label values; see
// CounterVec.Func.
func (v *GaugeVec) Func(fn func() float64, values ...string) { v.f.bindFunc(fn, values) }

// histogramVec registers (or returns) a labeled histogram family.
func (r *Registry) histogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, typeHistogram, labels, bounds)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{m: v.f.child(values), bounds: v.f.bounds}
}

// sortedFamilies snapshots the family list ordered by name — the collection
// order of both output formats, so scrapes are deterministic.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	slices.SortFunc(fams, func(a, b *family) int { return cmp.Compare(a.name, b.name) })
	return fams
}

// sortedChildren snapshots a family's children ordered by label values.
func (f *family) sortedChildren() []*metric {
	f.mu.Lock()
	ms := make([]*metric, 0, len(f.children))
	for _, m := range f.children {
		ms = append(ms, m)
	}
	f.mu.Unlock()
	slices.SortFunc(ms, func(a, b *metric) int {
		return cmp.Compare(labelKey(a.labelVals), labelKey(b.labelVals))
	})
	return ms
}

// Default bucket bounds. Fixed and deterministic so recorded scrapes are
// comparable across runs and machines.
var (
	// TimeBuckets covers kernel and phase durations, in seconds: 100µs up
	// to 10s in a 1-2.5-5 ladder.
	TimeBuckets = []float64{1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	// sizeBuckets covers graph sizes (nodes, edges): powers of four from
	// 256 to ~16M.
	sizeBuckets = []float64{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24}
	// gainBuckets covers per-iteration refinement gains, including the
	// no-progress and (rare) negative cases.
	gainBuckets = []float64{-100, 0, 10, 100, 1000, 10000, 100000}
)
