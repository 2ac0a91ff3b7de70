// Package trace is the zero-dependency request-scoped tracing layer of the
// Δ-SPOT service: spans with trace/span IDs, parent links, attributes and
// events, propagated through context.Context across the HTTP middleware,
// the async jobs engine, registry stream operations and the fit pipeline,
// plus W3C traceparent inbound/outbound propagation so traces survive
// process hops (the prep for the sharded serving fleet).
//
// The package is built around two invariants:
//
//   - Disabled tracing is free. Every method is nil-safe: a nil *Tracer
//     returns nil spans, and every method on a nil *Span is a no-op that
//     performs zero allocations. Code can therefore thread spans
//     unconditionally without guarding call sites.
//
//   - Completed spans are observable after the fact. Ending a span hands
//     its immutable SpanData to the Recorder (the trace flight recorder,
//     see recorder.go), which groups spans by trace and serves them at
//     GET /debug/traces — including spans that end after their trace's
//     root did, the normal case for async fit jobs.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one trace: 16 bytes, rendered as 32 lowercase hex
// characters (the W3C trace-id field).
type TraceID [16]byte

// IsZero reports whether the id is the invalid all-zeros id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the id as 32 hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one span within a trace: 8 bytes, 16 hex characters
// (the W3C parent-id field).
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zeros id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 16 hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the propagated identity of a span: everything a child in
// another goroutine or process needs to link itself to its parent.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether the context names a real span (non-zero ids).
func (sc SpanContext) Valid() bool {
	return !sc.TraceID.IsZero() && !sc.SpanID.IsZero()
}

// Traceparent renders the context as a W3C traceparent header value
// (version 00). Invalid contexts render as "".
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header value. It accepts any
// non-ff version (per spec, unknown versions are parsed as version 00 as
// long as the first four fields match) and rejects all-zero ids.
func ParseTraceparent(s string) (SpanContext, error) {
	// version(2) - trace-id(32) - parent-id(16) - flags(2)
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, fmt.Errorf("trace: malformed traceparent %q", s)
	}
	if len(s) > 55 && s[55] != '-' {
		return SpanContext{}, fmt.Errorf("trace: malformed traceparent %q", s)
	}
	if s[0:2] == "ff" {
		return SpanContext{}, fmt.Errorf("trace: forbidden traceparent version ff")
	}
	var sc SpanContext
	if _, err := hex.Decode(sc.TraceID[:], []byte(s[3:35])); err != nil {
		return SpanContext{}, fmt.Errorf("trace: bad trace-id in %q", s)
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(s[36:52])); err != nil {
		return SpanContext{}, fmt.Errorf("trace: bad parent-id in %q", s)
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(s[53:55])); err != nil {
		return SpanContext{}, fmt.Errorf("trace: bad flags in %q", s)
	}
	if sc.TraceID.IsZero() || sc.SpanID.IsZero() {
		return SpanContext{}, fmt.Errorf("trace: all-zero id in %q", s)
	}
	sc.Sampled = flags[0]&1 != 0
	return sc, nil
}

// TraceparentHeader is the W3C propagation header name.
const TraceparentHeader = "traceparent"

// Extract returns the remote span context carried by h's traceparent
// header, or a zero context when absent or malformed (propagation is
// best-effort; a broken header must not fail the request).
func Extract(h http.Header) SpanContext {
	v := h.Get(TraceparentHeader)
	if v == "" {
		return SpanContext{}
	}
	sc, err := ParseTraceparent(v)
	if err != nil {
		return SpanContext{}
	}
	return sc
}

// Inject stamps the current span context from ctx onto h as a traceparent
// header, for outbound requests to downstream shards. A ctx without a span
// leaves h untouched.
func Inject(ctx context.Context, h http.Header) {
	sc := SpanContextOf(ctx)
	if !sc.Valid() {
		return
	}
	h.Set(TraceparentHeader, sc.Traceparent())
}

// Context keys. Two distinct keys: an active *Span (local, attribute-able)
// and a remote SpanContext extracted from an inbound header (identity
// only). A span in ctx shadows any remote context.
type (
	spanKey   struct{}
	remoteKey struct{}
)

// ContextWithSpan returns ctx carrying span as the active span.
func ContextWithSpan(ctx context.Context, span *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, span)
}

// SpanFromContext returns ctx's active span, or nil. All *Span methods are
// nil-safe, so the result can be used unconditionally.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// ContextWithRemote returns ctx carrying an inbound remote span context;
// the next span started from it becomes that remote span's child.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey{}, sc)
}

// SpanContextOf resolves ctx's current span identity: the active span's
// context if one is set, else any remote context, else the zero context.
func SpanContextOf(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	if s, ok := ctx.Value(spanKey{}).(*Span); ok && s != nil {
		return s.Context()
	}
	if sc, ok := ctx.Value(remoteKey{}).(SpanContext); ok {
		return sc
	}
	return SpanContext{}
}

// Attr is one key/value span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{key, value} }

// Int builds an integer attribute.
func Int(key string, value int) Attr { return Attr{key, value} }

// Float64 builds a float attribute.
func Float64(key string, value float64) Attr { return Attr{key, value} }

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr { return Attr{key, value} }

// Event is one timestamped point annotation on a span.
type Event struct {
	Name  string    `json:"name"`
	Time  time.Time `json:"time"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// maxSpanEvents bounds per-span event accumulation so a chatty producer
// (e.g. a fit that accepts many shocks) cannot grow a span without bound.
const maxSpanEvents = 128

// Span is one timed operation inside a trace. Spans are created by a
// Tracer, annotated while running, and recorded on End. A nil *Span is the
// disabled-tracing span: every method no-ops.
type Span struct {
	tracer *Tracer
	name   string
	sc     SpanContext
	parent SpanID
	start  time.Time

	opened bool // begun in the recorder: held open until End

	mu      sync.Mutex
	attrs   []Attr
	events  []Event
	dropped int
	ended   bool
}

// Context returns the span's propagation identity (zero for nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetAttr sets (or overwrites) one attribute.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{key, value})
}

// AddEvent appends a timestamped annotation. Events beyond maxSpanEvents
// are counted as dropped rather than retained.
func (s *Span) AddEvent(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if len(s.events) >= maxSpanEvents {
		s.dropped++
		return
	}
	s.events = append(s.events, Event{Name: name, Time: time.Now(), Attrs: attrs})
}

// End completes the span and hands it to the recorder. Ending twice is
// harmless; only the first End records.
func (s *Span) End() { s.endAt(s.now()) }

func (s *Span) now() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *Span) endAt(end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	data := SpanData{
		TraceID:       s.sc.TraceID.String(),
		SpanID:        s.sc.SpanID.String(),
		Name:          s.name,
		Start:         s.start,
		DurationNs:    end.Sub(s.start).Nanoseconds(),
		Attrs:         s.attrs,
		Events:        s.events,
		DroppedEvents: s.dropped,
	}
	if !s.parent.IsZero() {
		data.ParentSpanID = s.parent.String()
	}
	s.mu.Unlock()
	if s.tracer != nil && s.tracer.rec != nil {
		s.tracer.rec.record(s.sc.TraceID, data, s.opened)
	}
}

// SpanData is the immutable wire form of a completed span, as served by
// GET /debug/traces/{id}.
type SpanData struct {
	TraceID       string    `json:"trace_id"`
	SpanID        string    `json:"span_id"`
	ParentSpanID  string    `json:"parent_span_id,omitempty"`
	Name          string    `json:"name"`
	Start         time.Time `json:"start"`
	DurationNs    int64     `json:"duration_ns"`
	Attrs         []Attr    `json:"attrs,omitempty"`
	Events        []Event   `json:"events,omitempty"`
	DroppedEvents int       `json:"dropped_events,omitempty"`
}

// Tracer creates spans and feeds completed ones to its Recorder. A nil
// *Tracer is the disabled tracer: Start and Record are allocation-free
// no-ops, which is what keeps the fit hot path untouched when tracing is
// off.
type Tracer struct {
	rec *Recorder
}

// NewTracer returns a tracer recording completed spans into rec (rec may
// be nil: spans then exist only for propagation and log correlation).
func NewTracer(rec *Recorder) *Tracer { return &Tracer{rec: rec} }

// Enabled reports whether the tracer actually traces.
func (t *Tracer) Enabled() bool { return t != nil }

// Recorder returns the tracer's flight recorder (nil when disabled).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// Start begins a span named name as a child of ctx's current span (active
// or remote), or as a new root when ctx has neither, and returns ctx with
// the new span installed. On a nil tracer it returns ctx unchanged and a
// nil span, without allocating.
func (t *Tracer) Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := t.StartChild(SpanContextOf(ctx), name, attrs...)
	return ContextWithSpan(ctx, s), s
}

// StartChild begins a span under an explicit parent context — the hop
// primitive used where a context.Context does not flow naturally (e.g. a
// job captured at enqueue time and started later on a worker). An invalid
// parent starts a new root trace. Until the span ends, the recorder keeps
// its trace from eviction.
func (t *Tracer) StartChild(parent SpanContext, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := t.newSpan(parent, name, attrs)
	if t.rec != nil {
		t.rec.begin(s.sc.TraceID)
		s.opened = true
	}
	return s
}

// newSpan builds a running span under parent without telling the recorder.
func (t *Tracer) newSpan(parent SpanContext, name string, attrs []Attr) *Span {
	sc := SpanContext{Sampled: true}
	if parent.Valid() {
		sc.TraceID = parent.TraceID
	} else {
		sc.TraceID = newTraceID()
	}
	sc.SpanID = newSpanID()
	return &Span{
		tracer: t, name: name, sc: sc, parent: parent.SpanID,
		start: time.Now(), attrs: attrs,
	}
}

// Record emits an already-completed operation as a child span of ctx's
// current span: end is now, start is now−d. This is the bridge shape for
// the fit pipeline, whose Progress events report stage durations at stage
// boundaries rather than wrapping stages in calls.
func (t *Tracer) Record(ctx context.Context, name string, d time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	t.RecordChild(SpanContextOf(ctx), name, d, attrs...)
}

// RecordChild is Record under an explicit parent span context.
func (t *Tracer) RecordChild(parent SpanContext, name string, d time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	s := t.newSpan(parent, name, attrs)
	s.start = time.Now().Add(-d)
	s.endAt(s.start.Add(d))
}

// --- id generation --------------------------------------------------------
//
// IDs must be unique, not cryptographically strong: a crypto/rand-seeded
// splitmix64 counter gives collision-free ids at a few atomic ops each,
// without a syscall per span.

var idState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		idState.Store(uint64(time.Now().UnixNano()))
	}
}

// nextID returns the next non-zero 64-bit id (splitmix64 output).
func nextID() uint64 {
	for {
		x := idState.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

func newTraceID() TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], nextID())
	binary.BigEndian.PutUint64(id[8:], nextID())
	return id
}

func newSpanID() SpanID {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], nextID())
	return id
}
