package trace

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Recorder is the trace flight recorder: a bounded in-memory store of
// completed spans grouped by trace, serving the most recent traffic at
// GET /debug/traces. Two retention classes keep it useful under load:
//
//   - normal traces live in a FIFO ring of MaxTraces — steady traffic
//     continuously overwrites the oldest entries;
//   - slow traces (total duration ≥ SlowThreshold) move to a separate ring
//     of MaxSlow and survive normal eviction, so the request you actually
//     want to debug is still there after ten thousand fast ones landed.
//
// Spans within one trace are additionally bounded by MaxSpansPerTrace
// (excess spans are counted, not stored). A trace with a span still open —
// one begun by Tracer.Start or StartChild and not yet ended — is never
// evicted: an async job's run and fit spans can outlive hundreds of fast
// traces, and evicting its entry would file those late spans under a fresh
// entry that has only them. When its last open span ends, the trace moves
// to the newest end of its ring, so it is kept as long as any trace that
// completed at that moment. Open traces may hold a ring above its bound
// until their spans end. All methods are safe for concurrent use.
type Recorder struct {
	opts RecorderOptions

	mu     sync.Mutex
	traces map[string]*traceEntry
	normal []*traceEntry   // FIFO, oldest first
	slow   []*traceEntry   // FIFO, oldest first
	open   map[TraceID]int // spans begun and not yet ended, per trace
}

// RecorderOptions bound the recorder. Zero values select the defaults.
type RecorderOptions struct {
	// MaxTraces bounds retained normal (fast) traces (default 256).
	MaxTraces int
	// MaxSlow bounds retained slow traces (default 64).
	MaxSlow int
	// SlowThreshold is the total-duration bar above which a trace is
	// retained as slow (default 1s; negative disables slow retention).
	SlowThreshold time.Duration
	// MaxSpansPerTrace bounds spans stored per trace (default 512).
	MaxSpansPerTrace int
}

func (o RecorderOptions) withDefaults() RecorderOptions {
	if o.MaxTraces <= 0 {
		o.MaxTraces = 256
	}
	if o.MaxSlow <= 0 {
		o.MaxSlow = 64
	}
	if o.SlowThreshold == 0 {
		o.SlowThreshold = time.Second
	}
	if o.MaxSpansPerTrace <= 0 {
		o.MaxSpansPerTrace = 512
	}
	return o
}

// NewRecorder returns an empty flight recorder.
func NewRecorder(opts RecorderOptions) *Recorder {
	return &Recorder{
		opts:   opts.withDefaults(),
		traces: make(map[string]*traceEntry),
		open:   make(map[TraceID]int),
	}
}

// traceEntry accumulates one trace's completed spans.
type traceEntry struct {
	id           string
	tid          TraceID
	spans        []SpanData
	droppedSpans int
	first        time.Time // earliest span start
	last         time.Time // latest span end
	slow         bool
}

func (e *traceEntry) duration() time.Duration { return e.last.Sub(e.first) }

// rootName returns the name of the span with no recorded parent (the
// oldest parentless span), or the oldest span's name as a fallback.
func (e *traceEntry) rootName() string {
	name, at := "", time.Time{}
	rootAt := time.Time{}
	root := ""
	for i := range e.spans {
		s := &e.spans[i]
		if at.IsZero() || s.Start.Before(at) {
			at, name = s.Start, s.Name
		}
		if s.ParentSpanID == "" && (rootAt.IsZero() || s.Start.Before(rootAt)) {
			rootAt, root = s.Start, s.Name
		}
	}
	if root != "" {
		return root
	}
	return name
}

// begin notes a span of trace tid as open, which keeps the trace from
// eviction until the span is recorded.
func (r *Recorder) begin(tid TraceID) {
	r.mu.Lock()
	r.open[tid]++
	r.mu.Unlock()
}

// record files one completed span under its trace, and closes it when begin
// opened it.
func (r *Recorder) record(tid TraceID, data SpanData, opened bool) {
	end := data.Start.Add(time.Duration(data.DurationNs))
	r.mu.Lock()
	defer r.mu.Unlock()
	closed := false
	if opened {
		if n := r.open[tid] - 1; n > 0 {
			r.open[tid] = n
		} else {
			delete(r.open, tid)
			closed = true
		}
	}
	e, ok := r.traces[data.TraceID]
	if !ok {
		e = &traceEntry{id: data.TraceID, tid: tid, first: data.Start, last: end}
		r.traces[data.TraceID] = e
		r.normal = append(r.normal, e)
		r.evictLocked()
	} else if closed {
		if e.slow {
			moveToBack(r.slow, e)
		} else {
			moveToBack(r.normal, e)
		}
	}
	if len(e.spans) < r.opts.MaxSpansPerTrace {
		e.spans = append(e.spans, data)
	} else {
		e.droppedSpans++
	}
	if data.Start.Before(e.first) {
		e.first = data.Start
	}
	if end.After(e.last) {
		e.last = end
	}
	if !e.slow && r.opts.SlowThreshold > 0 && e.duration() >= r.opts.SlowThreshold {
		e.slow = true
		r.normal = removeEntry(r.normal, e)
		r.slow = append(r.slow, e)
		r.evictLocked()
	}
}

// evictLocked applies both FIFO bounds.
func (r *Recorder) evictLocked() {
	r.normal = r.evictRing(r.normal, r.opts.MaxTraces)
	r.slow = r.evictRing(r.slow, r.opts.MaxSlow)
}

// evictRing drops the oldest traces without open spans until ring holds at
// most max entries, or only traces with open spans are left to drop.
func (r *Recorder) evictRing(ring []*traceEntry, max int) []*traceEntry {
	for i := 0; len(ring) > max && i < len(ring); {
		if r.open[ring[i].tid] > 0 {
			i++
			continue
		}
		delete(r.traces, ring[i].id)
		if i == 0 {
			ring = ring[1:]
		} else {
			ring = append(ring[:i], ring[i+1:]...)
		}
	}
	return ring
}

// moveToBack rotates e to the newest end of ring, in place.
func moveToBack(ring []*traceEntry, e *traceEntry) {
	for i := len(ring) - 1; i >= 0; i-- {
		if ring[i] == e {
			copy(ring[i:], ring[i+1:])
			ring[len(ring)-1] = e
			return
		}
	}
}

func removeEntry(s []*traceEntry, e *traceEntry) []*traceEntry {
	for i, x := range s {
		if x == e {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// TraceSummary is one row of the GET /debug/traces listing.
type TraceSummary struct {
	TraceID      string    `json:"trace_id"`
	Root         string    `json:"root"`
	Spans        int       `json:"spans"`
	DroppedSpans int       `json:"dropped_spans,omitempty"`
	Start        time.Time `json:"start"`
	DurationNs   int64     `json:"duration_ns"`
	Slow         bool      `json:"slow,omitempty"`
}

// TraceData is one full trace as served by GET /debug/traces/{id}, spans
// ordered by start time.
type TraceData struct {
	TraceID      string     `json:"trace_id"`
	Root         string     `json:"root"`
	Start        time.Time  `json:"start"`
	DurationNs   int64      `json:"duration_ns"`
	Slow         bool       `json:"slow,omitempty"`
	DroppedSpans int        `json:"dropped_spans,omitempty"`
	Spans        []SpanData `json:"spans"`
}

// List returns a summary of every retained trace, newest first.
func (r *Recorder) List() []TraceSummary {
	r.mu.Lock()
	out := make([]TraceSummary, 0, len(r.traces))
	for _, e := range r.traces {
		out = append(out, TraceSummary{
			TraceID: e.id, Root: e.rootName(),
			Spans: len(e.spans), DroppedSpans: e.droppedSpans,
			Start: e.first, DurationNs: e.duration().Nanoseconds(),
			Slow: e.slow,
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.After(out[j].Start)
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}

// Get returns one trace by 32-hex-character id.
func (r *Recorder) Get(id string) (TraceData, bool) {
	r.mu.Lock()
	e, ok := r.traces[id]
	if !ok {
		r.mu.Unlock()
		return TraceData{}, false
	}
	td := TraceData{
		TraceID: e.id, Root: e.rootName(), Start: e.first,
		DurationNs: e.duration().Nanoseconds(), Slow: e.slow,
		DroppedSpans: e.droppedSpans,
		Spans:        append([]SpanData(nil), e.spans...),
	}
	r.mu.Unlock()
	sort.Slice(td.Spans, func(i, j int) bool {
		if !td.Spans[i].Start.Equal(td.Spans[j].Start) {
			return td.Spans[i].Start.Before(td.Spans[j].Start)
		}
		return td.Spans[i].SpanID < td.Spans[j].SpanID
	})
	return td, true
}

// Len returns the number of retained traces.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.traces)
}

// ListHandler serves the GET /debug/traces listing as JSON.
func (r *Recorder) ListHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"traces": r.List()})
	})
}

// GetHandler serves GET /debug/traces/{id} as JSON (404 for unknown or
// already-evicted traces). It expects to be routed with an {id} pattern.
func (r *Recorder) GetHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		td, ok := r.Get(req.PathValue("id"))
		if !ok {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			_ = json.NewEncoder(w).Encode(map[string]string{
				"error": "trace not found (never sampled, or evicted from the flight recorder)",
			})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(td)
	})
}
