package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must rank above a percentile before it is
// reported: p50 needs 20 samples, p90 needs 100 and p99 needs 1000.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether it may be reported, which needs at least minBeyond samples ranked
// above it. xs is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return s[idx], n-1-idx >= minBeyond
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// entry is one reported metric with the number of samples behind it.
// Ungated metrics are printed and recorded but left out of the result
// line.
type entry struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Ungated bool    `json:"ungated,omitempty"`
}

// metricSet collects a run's metrics in the order they are added. Metrics
// that cannot be reported are kept as notes, so the report says why a
// metric is missing.
type metricSet struct {
	entries []entry
	notes   []string
}

func (m *metricSet) add(name, unit string, value float64, samples int) {
	m.entries = append(m.entries, entry{Name: name, Value: value, Unit: unit, Samples: samples})
}

// addPct adds the q-quantile of xs (already in unit) when the percentile
// rule allows it, and a note otherwise. With zero allowed the metric is
// reported as 0 when there are no samples at all: the per-layer metrics of
// a layer a workload never crosses.
func (m *metricSet) addPct(name, unit string, xs []float64, q float64, zeroAllowed bool) {
	v, ok := percentile(xs, q)
	switch {
	case ok:
		m.add(name, unit, v, len(xs))
	case len(xs) == 0 && zeroAllowed:
		m.add(name, unit, 0, 0)
	default:
		m.notes = append(m.notes, fmt.Sprintf("%s not reported: %d samples, a p%g needs %d beyond it",
			name, len(xs), q*100, minBeyond))
		if zeroAllowed {
			m.add(name, unit, 0, len(xs))
		}
	}
}

// addUngated adds a percentile as an ungated metric, printed and recorded
// but left out of the result line: the client-side p90s and p99s, which on
// a shared VM follow the host's CPU steal more than the program (README,
// Noise), and file-system call times.
func (m *metricSet) addUngated(name, unit string, xs []float64, q float64) {
	n := len(m.entries)
	m.addPct(name, unit, xs, q, false)
	if len(m.entries) > n {
		m.entries[n].Ungated = true
	}
}

// ms and secs convert nanosecond samples for reporting.
func ms(ns []int64) []float64   { return scaled(ns, 1e-6) }
func secs(ns []int64) []float64 { return scaled(ns, 1e-9) }

func scaled(ns []int64, f float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) * f
	}
	return out
}
