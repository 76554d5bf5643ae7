// Package obs is the observability substrate: a zero-dependency metrics
// registry (atomic counters, gauges, and fixed-bucket histograms with
// quantile extraction), Prometheus text-format exposition, and
// context-propagated request tracing with a slow-operation log.
//
// The registry is the passive half: layers register named metrics once
// (duplicate names panic — they would silently split one series into two)
// and observe into them on hot paths with a single atomic add. Exposition
// walks the registry at scrape time, so collector functions (GaugeFunc /
// CounterFunc) can surface counters that already live elsewhere — the
// engine's I/O stats, the checkout cache's hit counters — without any
// mirroring on the hot path.
//
// The tracer is the active half: see trace.go.
//
// Every observe/record method is nil-receiver-safe, so instrumented layers
// (the WAL, the data models) accept optional metric handles and never need
// nil checks at call sites.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyBuckets is the default histogram layout for operation latencies in
// seconds: a 1-2-5 ladder from 1µs to 10s. The ~2× bucket resolution is fine
// enough to separate a cache hit (µs) from a cold materialization (100s of
// µs) or a disk fsync (ms).
var LatencyBuckets = []float64{
	1e-6, 2e-6, 5e-6,
	1e-5, 2e-5, 5e-5,
	1e-4, 2e-4, 5e-4,
	1e-3, 2e-3, 5e-3,
	1e-2, 2e-2, 5e-2,
	1e-1, 2e-1, 5e-1,
	1, 2.5, 5, 10,
}

// SizeBuckets is the default histogram layout for byte sizes: powers of four
// from 64 B to 64 MiB (the WAL frame limit is 256 MiB; anything beyond the
// last bound lands in +Inf).
var SizeBuckets = []float64{
	64, 256, 1024, 4096, 16384, 65536,
	262144, 1048576, 4194304, 16777216, 67108864,
}

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Counter is a monotonically increasing value. All methods are safe for
// concurrent use and nil receivers.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (n must be >= 0 for Prometheus semantics;
// negative deltas are not checked, just don't).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. Safe for concurrent use and nil
// receivers.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Buckets are cumulative at
// exposition (Prometheus layout); observation is one atomic add into the
// first bucket whose upper bound holds the value, plus count and sum. The
// unit is whatever the caller observes — seconds for latencies
// (ObserveDuration), bytes for sizes (Observe).
type Histogram struct {
	bounds []float64 // ascending upper bounds; counts has one extra slot: the +Inf overflow bucket
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomicFloat
	// overflowMax tracks the largest value observed into the +Inf overflow
	// bucket, so quantiles whose rank lands there report a real outlier
	// magnitude instead of silently clamping to the last finite bound.
	overflowMax atomicFloat
}

// NewHistogram builds an unregistered histogram over the given ascending
// bucket upper bounds (callers that only want quantiles — the bench tools —
// use this directly; servers register through a Registry).
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d (%g <= %g)", i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	if i == len(h.bounds) { // +Inf overflow bucket
		h.overflowMax.max(v)
	}
}

// ObserveDuration records a latency in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// snapshot copies the cumulative bucket counts (len(bounds)+1, last is +Inf)
// and the total. Observations racing the copy may skew one bucket by one —
// irrelevant for exposition and quantiles.
func (h *Histogram) snapshot() (cum []int64, total int64) {
	cum = make([]int64, len(h.counts))
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum, h.count.Load()
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket holding the target rank, the same estimate
// histogram_quantile() gives in PromQL. Ranks landing in the +Inf overflow
// bucket report the largest overflow value observed, so p99 of an
// outlier-heavy series is not understated. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	cum, total := h.snapshot()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	for i, c := range cum {
		if float64(c) < rank {
			continue
		}
		if i == len(h.bounds) { // +Inf overflow bucket
			if m := h.overflowMax.load(); m > h.bounds[len(h.bounds)-1] {
				return m
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		var below int64
		if i > 0 {
			lo = h.bounds[i-1]
			below = cum[i-1]
		}
		inBucket := float64(c - below)
		if inBucket == 0 {
			return h.bounds[i]
		}
		return lo + (h.bounds[i]-lo)*(rank-float64(below))/inBucket
	}
	return h.bounds[len(h.bounds)-1]
}

// atomicFloat is a float64 updated with CAS on its bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// max raises the stored value to v if v is larger.
func (f *atomicFloat) max(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// metricKind is the Prometheus TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one labeled instance within a family.
type series struct {
	labels []string // values, aligned with family.labelNames
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // scrape-time collector (counter or gauge kind)
}

// family is one named metric: its help, type, label schema, and series.
type family struct {
	name       string
	help       string
	kind       metricKind
	labelNames []string
	bounds     []float64 // histogram families

	mu     sync.Mutex
	series map[string]*series // key: joined label values
	order  []string           // insertion order for stable exposition
}

func (f *family) get(values []string, make func() *series) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labelNames), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := make()
	s.labels = append([]string(nil), values...)
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

func labelKey(values []string) string {
	out := ""
	for _, v := range values {
		out += v + "\x00"
	}
	return out
}

// Registry holds named metric families. One Registry per Store; the HTTP
// layer serves it on GET /metrics. All methods are safe for concurrent use.
// Registering two metrics under one name panics: it is a programming error
// that would otherwise corrupt the series.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds a family, panicking on duplicate or invalid names.
func (r *Registry) register(name, help string, kind metricKind, labelNames []string, bounds []float64) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !nameRE.MatchString(l) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric registration %q", name))
	}
	f := &family{
		name:       name,
		help:       help,
		kind:       kind,
		labelNames: append([]string(nil), labelNames...),
		bounds:     bounds,
		series:     make(map[string]*series),
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	return f.get(nil, func() *series { return &series{c: &Counter{}} }).c
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil, nil)
	return f.get(nil, func() *series { return &series{g: &Gauge{}} }).g
}

// Histogram registers and returns an unlabeled histogram over bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, kindHistogram, nil, bounds)
	return f.get(nil, func() *series { return &series{h: NewHistogram(bounds)} }).h
}

// CounterFunc registers a scrape-time collector exposed as a counter: fn is
// called on every exposition. Use it to surface cumulative counters that
// already live elsewhere (engine stats, cache stats) without hot-path
// mirroring.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindCounter, nil, nil)
	f.get(nil, func() *series { return &series{fn: fn} })
}

// GaugeFunc registers a scrape-time collector exposed as a gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil, nil)
	f.get(nil, func() *series { return &series{fn: fn} })
}

// CounterVec is a counter family with labels; children are created on first
// use.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, labelNames, nil)}
}

// With returns the child counter for the given label values (created on
// first use). The number of values must match the registered label names.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() *series { return &series{c: &Counter{}} }).c
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, kindGauge, labelNames, nil)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values, func() *series { return &series{g: &Gauge{}} }).g
}

// HistogramVec is a histogram family with labels; every child shares the
// family's bucket layout.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family over bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, kindHistogram, labelNames, bounds)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values, func() *series { return &series{h: NewHistogram(v.f.bounds)} }).h
}

// Sample is one scalar reading taken from the registry: counters and gauges
// flatten to one sample each, histograms expand to _count, _sum, and
// interpolated _p50/_p95/_p99 samples per labeled series. Name carries any
// suffix; Labels is the rendered Prometheus label set ("" when unlabeled),
// so Name+Labels is a stable series identity across scrapes.
type Sample struct {
	Name   string
	Labels string
	Value  float64
}

// histQuantileSuffixes pairs the exported per-histogram digest samples with
// their quantiles.
var histQuantileSuffixes = []struct {
	suffix string
	q      float64
}{
	{"_p50", 0.50},
	{"_p95", 0.95},
	{"_p99", 0.99},
}

// Samples flattens every registered family into scalar samples, calling
// scrape-time collector functions as it goes. Families and series appear in
// registration order, so repeated calls yield stable series ordering.
func (r *Registry) Samples() []Sample {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, n := range r.order {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	var out []Sample
	for _, f := range fams {
		f.mu.Lock()
		sers := make([]*series, 0, len(f.order))
		for _, k := range f.order {
			sers = append(sers, f.series[k])
		}
		f.mu.Unlock()
		for _, s := range sers {
			ls := labelSet(f.labelNames, s.labels, "", "")
			switch {
			case s.fn != nil:
				out = append(out, Sample{Name: f.name, Labels: ls, Value: s.fn()})
			case s.c != nil:
				out = append(out, Sample{Name: f.name, Labels: ls, Value: float64(s.c.Value())})
			case s.g != nil:
				out = append(out, Sample{Name: f.name, Labels: ls, Value: float64(s.g.Value())})
			case s.h != nil:
				out = append(out,
					Sample{Name: f.name + "_count", Labels: ls, Value: float64(s.h.Count())},
					Sample{Name: f.name + "_sum", Labels: ls, Value: s.h.Sum()})
				for _, pq := range histQuantileSuffixes {
					out = append(out, Sample{Name: f.name + pq.suffix, Labels: ls, Value: s.h.Quantile(pq.q)})
				}
			}
		}
	}
	return out
}
