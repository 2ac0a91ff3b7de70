package main

// maxSamples bounds the latencies one replay records per kind: far more
// than a 60-second run of the fastest workload produces.
const maxSamples = 1 << 22

// latencies records durations in nanoseconds outside the Go heap, so that
// the benchmark's own bookkeeping does not show in peak_heap_mb.
type latencies struct {
	words   []uint64
	release func()
}

func newLatencies() *latencies {
	w, release := mapSlice[uint64](maxSamples)
	return &latencies{words: w, release: release}
}

// add records one duration; past maxSamples it is dropped.
func (l *latencies) add(ns int64) {
	if len(l.words) < cap(l.words) {
		l.words = append(l.words, uint64(ns))
	}
}

func (l *latencies) len() int { return len(l.words) }

// ns copies the samples onto the heap for analysis.
func (l *latencies) ns() []int64 {
	out := make([]int64, len(l.words))
	for i, w := range l.words {
		out[i] = int64(w)
	}
	return out
}

func (l *latencies) free() {
	l.words = nil
	l.release()
}
