// Package obs is the stdlib-only observability toolkit for the Δ-SPOT
// service and fitters: a small metrics registry (counters, gauges,
// histograms, with labels) that renders the Prometheus text exposition
// format, and leveled structured logging helpers over log/slog.
//
// The registry is safe for concurrent use; metric handles are cheap to hold
// and update (atomic operations, no allocation on the hot path once the
// series exists). It deliberately implements only the subset of the
// Prometheus data model the project needs — no external dependency, no
// push gateways, no summaries.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric kinds as rendered in the # TYPE exposition line.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Registry holds metric families and renders them as Prometheus text.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with a fixed label schema and its series.
type family struct {
	name    string
	help    string
	kind    string
	labels  []string
	buckets []float64 // histograms only

	mu     sync.Mutex
	series map[string]metric // key: rendered label suffix ("" when unlabelled)
}

// metric is anything a family can hold.
type metric interface {
	expose(w io.Writer, name, labelSuffix string)
}

func (r *Registry) lookup(name, kind, help string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v (was %s%v)",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		series: make(map[string]metric)}
	if kind == kindHistogram {
		f.buckets = normalizeBuckets(buckets)
	}
	r.families[name] = f
	return f
}

// get returns the series for the given label values, creating it on first
// use via make.
func (f *family) get(values []string, make func() metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := renderLabels(f.labels, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	m := make()
	f.series[key] = m
	return m
}

// renderLabels builds the `{a="x",b="y"}` suffix (empty for no labels).
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// --- scalar metrics -------------------------------------------------------

// scalar is an atomically updated float64 shared by Counter and Gauge.
type scalar struct{ bits atomic.Uint64 }

func (s *scalar) add(delta float64) {
	for {
		old := s.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if s.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (s *scalar) set(v float64)  { s.bits.Store(math.Float64bits(v)) }
func (s *scalar) value() float64 { return math.Float64frombits(s.bits.Load()) }
func (s *scalar) expose(w io.Writer, name, suffix string) {
	fmt.Fprintf(w, "%s%s %s\n", name, suffix, formatFloat(s.value()))
}

// Counter is a monotonically increasing value.
type Counter struct{ scalar }

// Inc adds one.
func (c *Counter) Inc() { c.add(1) }

// Add adds delta; negative deltas are ignored (counters never decrease).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	c.add(delta)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.value() }

// Gauge is a value that can go up and down.
type Gauge struct{ scalar }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.set(v) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta float64) { g.add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.value() }

// --- histogram ------------------------------------------------------------

// Histogram counts observations into cumulative buckets.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf excluded
	counts []atomic.Uint64
	sum    scalar
	total  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.add(v)
	h.total.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.value() }

func (h *Histogram) expose(w io.Writer, name, suffix string) {
	// Rebuild the label suffix with le appended.
	open := "{"
	if suffix != "" {
		open = suffix[:len(suffix)-1] + ","
	}
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%sle=\"%s\"} %d\n", name, open, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, open, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, suffix, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, h.Count())
}

// DefBuckets are latency buckets in seconds, spanning fast handler hits to
// multi-minute tensor fits.
func DefBuckets() []float64 {
	return []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}
}

// SizeBuckets are payload-size buckets in bytes (256 B – 64 MiB).
func SizeBuckets() []float64 {
	return []float64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
		1 << 20, 4 << 20, 16 << 20, 64 << 20}
}

func normalizeBuckets(b []float64) []float64 {
	if len(b) == 0 {
		b = DefBuckets()
	}
	out := append([]float64(nil), b...)
	sort.Float64s(out)
	// Drop a trailing +Inf; it is implicit.
	for len(out) > 0 && math.IsInf(out[len(out)-1], 1) {
		out = out[:len(out)-1]
	}
	return out
}

// --- registry constructors ------------------------------------------------

// Counter returns the unlabelled counter name, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, kindCounter, help, nil, nil)
	return f.get(nil, func() metric { return &Counter{} }).(*Counter)
}

// Gauge returns the unlabelled gauge name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, kindGauge, help, nil, nil)
	return f.get(nil, func() metric { return &Gauge{} }).(*Gauge)
}

// Histogram returns the unlabelled histogram name with the given bucket
// upper bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.lookup(name, kindHistogram, help, nil, buckets)
	return f.get(nil, func() metric { return newHistogram(f.buckets) }).(*Histogram)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.lookup(name, kindCounter, help, labels, nil)}
}

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() metric { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.lookup(name, kindGauge, help, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values, func() metric { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) a labelled histogram family; nil
// buckets selects DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.lookup(name, kindHistogram, help, labels, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values, func() metric { return newHistogram(v.f.buckets) }).(*Histogram)
}

// --- exposition -----------------------------------------------------------

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4), families and series in sorted order so
// output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, k := range keys {
			f.series[k].expose(w, f.name, k)
		}
		f.mu.Unlock()
	}
}

// Handler returns a GET-only /metrics endpoint for this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if req.Method == http.MethodHead {
			return
		}
		r.WritePrometheus(w)
	})
}
