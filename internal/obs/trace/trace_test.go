package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	rec := NewRecorder(RecorderOptions{})
	tr := NewTracer(rec)
	_, root := tr.Start(context.Background(), "root")
	sc := root.Context()
	if !sc.Valid() {
		t.Fatal("root span context invalid")
	}
	header := sc.Traceparent()
	if len(header) != 55 || !strings.HasPrefix(header, "00-") || !strings.HasSuffix(header, "-01") {
		t.Fatalf("traceparent %q not in W3C shape", header)
	}
	got, err := ParseTraceparent(header)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", header, err)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v, want %+v", got, sc)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00",
		"00-abc-def-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version ff forbidden
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g", // bad flags
		"00-XYZ92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // bad hex
		"00+4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // bad separator
	}
	for _, s := range bad {
		if _, err := ParseTraceparent(s); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", s)
		}
	}
	// Unknown (non-ff) versions with trailing fields parse per spec.
	ok := "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"
	if _, err := ParseTraceparent(ok); err != nil {
		t.Errorf("ParseTraceparent(%q): %v (future versions should parse)", ok, err)
	}
}

func TestExtractInject(t *testing.T) {
	tr := NewTracer(nil)
	ctx, span := tr.Start(context.Background(), "op")
	h := http.Header{}
	Inject(ctx, h)
	got := Extract(h)
	if got != span.Context() {
		t.Fatalf("Extract(Inject(ctx)) = %+v, want %+v", got, span.Context())
	}
	// Inject from a span-less ctx must not set the header.
	h2 := http.Header{}
	Inject(context.Background(), h2)
	if h2.Get(TraceparentHeader) != "" {
		t.Fatal("Inject from empty ctx set a traceparent header")
	}
	// Extract tolerates garbage.
	h3 := http.Header{}
	h3.Set(TraceparentHeader, "not-a-traceparent")
	if Extract(h3).Valid() {
		t.Fatal("Extract accepted a malformed header")
	}
}

func TestSpanHierarchyAndRecording(t *testing.T) {
	rec := NewRecorder(RecorderOptions{})
	tr := NewTracer(rec)

	ctx, root := tr.Start(context.Background(), "root", String("kind", "test"))
	cctx, child := tr.Start(ctx, "child")
	child.SetAttr("n", 42)
	child.SetAttr("n", 43) // overwrite
	child.AddEvent("tick", Int("i", 1))
	_ = cctx
	child.End()
	tr.Record(ctx, "retro", 5*time.Millisecond, Bool("late", true))
	root.End()

	if root.Context().TraceID != child.Context().TraceID {
		t.Fatal("child span on a different trace than its parent")
	}
	td, ok := rec.Get(root.Context().TraceID.String())
	if !ok {
		t.Fatal("trace not recorded")
	}
	if len(td.Spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(td.Spans))
	}
	byName := map[string]SpanData{}
	for _, s := range td.Spans {
		byName[s.Name] = s
	}
	rootData := byName["root"]
	if rootData.ParentSpanID != "" {
		t.Fatalf("root has parent %q", rootData.ParentSpanID)
	}
	for _, name := range []string{"child", "retro"} {
		s := byName[name]
		if s.ParentSpanID != rootData.SpanID {
			t.Fatalf("%s parent %q, want root %q", name, s.ParentSpanID, rootData.SpanID)
		}
		if s.TraceID != rootData.TraceID {
			t.Fatalf("%s on trace %q, want %q", name, s.TraceID, rootData.TraceID)
		}
	}
	childData := byName["child"]
	if len(childData.Attrs) != 1 || childData.Attrs[0].Value != 43 {
		t.Fatalf("child attrs %+v, want single n=43", childData.Attrs)
	}
	if len(childData.Events) != 1 || childData.Events[0].Name != "tick" {
		t.Fatalf("child events %+v", childData.Events)
	}
	if d := byName["retro"].DurationNs; d != (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("retro duration %d, want 5ms", d)
	}
	if td.Root != "root" {
		t.Fatalf("trace root %q, want root", td.Root)
	}
}

func TestSpanEndIdempotentAndPostEndMutationIgnored(t *testing.T) {
	rec := NewRecorder(RecorderOptions{})
	tr := NewTracer(rec)
	_, s := tr.Start(context.Background(), "once")
	s.End()
	s.SetAttr("late", true)
	s.AddEvent("late")
	s.End()
	td, _ := rec.Get(s.Context().TraceID.String())
	if len(td.Spans) != 1 {
		t.Fatalf("double End recorded %d spans", len(td.Spans))
	}
	if len(td.Spans[0].Attrs) != 0 || len(td.Spans[0].Events) != 0 {
		t.Fatalf("post-End mutation leaked into %+v", td.Spans[0])
	}
}

func TestRecorderEvictionFIFO(t *testing.T) {
	rec := NewRecorder(RecorderOptions{MaxTraces: 3, SlowThreshold: time.Hour})
	tr := NewTracer(rec)
	var ids []string
	for i := 0; i < 5; i++ {
		_, s := tr.Start(context.Background(), "op")
		ids = append(ids, s.Context().TraceID.String())
		s.End()
	}
	if rec.Len() != 3 {
		t.Fatalf("recorder holds %d traces, want 3", rec.Len())
	}
	for _, old := range ids[:2] {
		if _, ok := rec.Get(old); ok {
			t.Fatalf("trace %s survived FIFO eviction", old)
		}
	}
	for _, recent := range ids[2:] {
		if _, ok := rec.Get(recent); !ok {
			t.Fatalf("recent trace %s evicted", recent)
		}
	}
}

func TestRecorderSlowTraceRetention(t *testing.T) {
	rec := NewRecorder(RecorderOptions{MaxTraces: 2, MaxSlow: 4, SlowThreshold: 50 * time.Millisecond})
	tr := NewTracer(rec)

	// One slow trace (retro span with a duration over the bar)...
	_, slowRoot := tr.Start(context.Background(), "slow-root")
	tr.Record(ContextWithSpan(context.Background(), slowRoot), "slow-stage", 80*time.Millisecond)
	slowRoot.End()
	slowID := slowRoot.Context().TraceID.String()

	td, ok := rec.Get(slowID)
	if !ok || !td.Slow {
		t.Fatalf("slow trace not marked slow: ok=%v slow=%v", ok, td.Slow)
	}

	// ...then a flood of fast traces that would evict it from the normal ring.
	for i := 0; i < 10; i++ {
		_, s := tr.Start(context.Background(), "fast")
		s.End()
	}
	if _, ok := rec.Get(slowID); !ok {
		t.Fatal("slow trace evicted by fast-trace flood; slow retention broken")
	}

	// The slow ring has its own bound.
	for i := 0; i < 6; i++ {
		_, s := tr.Start(context.Background(), "also-slow")
		tr.Record(ContextWithSpan(context.Background(), s), "stage", 80*time.Millisecond)
		s.End()
	}
	if _, ok := rec.Get(slowID); ok {
		t.Fatal("oldest slow trace survived past MaxSlow newer slow traces")
	}
}

// TestRecorderKeepsOpenTrace: a trace with a span still open survives any
// number of fast traces, so its late spans join the ones it already
// recorded instead of opening a fresh entry that has only them — the shape
// of an async job whose run outlives hundreds of status polls. When its
// last span ends it counts as the newest trace: it survives the next
// MaxTraces-1 traces (the poll that sees the job done among them) and is
// evicted like any other after that.
func TestRecorderKeepsOpenTrace(t *testing.T) {
	rec := NewRecorder(RecorderOptions{MaxTraces: 2, SlowThreshold: time.Hour})
	tr := NewTracer(rec)
	poll := func(k int) {
		for i := 0; i < k; i++ {
			_, s := tr.Start(context.Background(), "poll")
			s.End()
		}
		if n := rec.Len(); n > 2 {
			t.Fatalf("recorder holds %d traces, want at most MaxTraces=2", n)
		}
	}

	_, req := tr.Start(context.Background(), "http.request")
	wait := tr.StartChild(req.Context(), "job.wait")
	req.End()
	id := req.Context().TraceID.String()
	poll(10)
	run := tr.StartChild(req.Context(), "job.run")
	wait.End()
	poll(10)
	tr.Record(ContextWithSpan(context.Background(), run), "fit.global", time.Millisecond)
	poll(10)
	run.End()
	poll(1)

	td, ok := rec.Get(id)
	if !ok {
		t.Fatal("trace evicted while a span was open, or by the first trace after it ended")
	}
	var names []string
	for _, sp := range td.Spans {
		names = append(names, sp.Name)
	}
	sort.Strings(names)
	if got := strings.Join(names, ","); got != "fit.global,http.request,job.run,job.wait" {
		t.Fatalf("trace holds spans %s, want all four", got)
	}
	poll(1)
	if _, ok := rec.Get(id); ok {
		t.Fatal("ended trace survived FIFO eviction")
	}
}

func TestRecorderSpanBound(t *testing.T) {
	rec := NewRecorder(RecorderOptions{MaxSpansPerTrace: 4})
	tr := NewTracer(rec)
	ctx, root := tr.Start(context.Background(), "root")
	for i := 0; i < 10; i++ {
		_, s := tr.Start(ctx, "child")
		s.End()
	}
	root.End()
	td, _ := rec.Get(root.Context().TraceID.String())
	if len(td.Spans) != 4 {
		t.Fatalf("trace holds %d spans, want MaxSpansPerTrace=4", len(td.Spans))
	}
	if td.DroppedSpans != 7 {
		t.Fatalf("dropped_spans %d, want 7", td.DroppedSpans)
	}
}

// TestNoopAllocGates pins the disabled-tracing contract the fit hot path
// depends on: every operation on a nil tracer and nil span — starting,
// annotating, ending, recording, resolving context identity — performs
// zero allocations. CI's bench-smoke job runs this gate.
func TestNoopAllocGates(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	if a := testing.AllocsPerRun(200, func() {
		c, s := tr.Start(ctx, "op")
		s.SetAttr("k", "v")
		s.AddEvent("e")
		tr.Record(c, "retro", time.Second)
		s.End()
	}); a != 0 {
		t.Fatalf("nil-tracer span lifecycle: %.1f allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		_ = SpanFromContext(ctx)
		_ = SpanContextOf(ctx)
	}); a != 0 {
		t.Fatalf("context resolution on empty ctx: %.1f allocs/op, want 0", a)
	}
}

func TestLogHandlerStampsTraceIDs(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(WrapLogHandler(slog.NewJSONHandler(&buf, nil)))
	tr := NewTracer(nil)
	ctx, span := tr.Start(context.Background(), "op")

	logger.InfoContext(ctx, "inside")
	logger.Info("outside")
	span.End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2", len(lines))
	}
	var inside map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &inside); err != nil {
		t.Fatal(err)
	}
	if inside["trace_id"] != span.Context().TraceID.String() {
		t.Fatalf("trace_id %v, want %s", inside["trace_id"], span.Context().TraceID)
	}
	if inside["span_id"] != span.Context().SpanID.String() {
		t.Fatalf("span_id %v, want %s", inside["span_id"], span.Context().SpanID)
	}
	if strings.Contains(lines[1], "trace_id") {
		t.Fatalf("ctx-less log line grew a trace_id: %s", lines[1])
	}
	// Wrapping twice must not double-stamp.
	h := WrapLogHandler(WrapLogHandler(slog.NewJSONHandler(&buf, nil)))
	if _, ok := h.(*logHandler); !ok {
		t.Fatal("double wrap changed handler type")
	}
}

// TestConcurrentSpans exercises the tracer and recorder from many
// goroutines (meaningful under -race): interleaved child spans across
// traces must each land in their own trace with consistent parents.
func TestConcurrentSpans(t *testing.T) {
	rec := NewRecorder(RecorderOptions{MaxTraces: 64})
	tr := NewTracer(rec)
	const workers = 16
	var wg sync.WaitGroup
	ids := make([]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx, root := tr.Start(context.Background(), "root")
			ids[w] = root.Context().TraceID.String()
			var cwg sync.WaitGroup
			for c := 0; c < 4; c++ {
				cwg.Add(1)
				go func(c int) {
					defer cwg.Done()
					_, s := tr.Start(ctx, "child")
					s.SetAttr("c", c)
					s.AddEvent("work")
					s.End()
				}(c)
			}
			cwg.Wait()
			root.End()
		}(w)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("trace id %s collided across workers", id)
		}
		seen[id] = true
		td, ok := rec.Get(id)
		if !ok {
			t.Fatalf("trace %s missing", id)
		}
		if len(td.Spans) != 5 {
			t.Fatalf("trace %s has %d spans, want 5", id, len(td.Spans))
		}
		rootID := ""
		for _, s := range td.Spans {
			if s.ParentSpanID == "" {
				rootID = s.SpanID
			}
		}
		for _, s := range td.Spans {
			if s.ParentSpanID != "" && s.ParentSpanID != rootID {
				t.Fatalf("span %s parent %s is not the root %s", s.SpanID, s.ParentSpanID, rootID)
			}
		}
	}
}

func TestHandlers(t *testing.T) {
	rec := NewRecorder(RecorderOptions{})
	tr := NewTracer(rec)
	_, s := tr.Start(context.Background(), "op")
	s.End()
	id := s.Context().TraceID.String()

	mux := http.NewServeMux()
	mux.Handle("GET /debug/traces", rec.ListHandler())
	mux.Handle("GET /debug/traces/{id}", rec.GetHandler())

	body := serveJSON(t, mux, "/debug/traces", http.StatusOK)
	var list struct {
		Traces []TraceSummary `json:"traces"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 1 || list.Traces[0].TraceID != id {
		t.Fatalf("listing %+v, want the one trace %s", list.Traces, id)
	}

	body = serveJSON(t, mux, "/debug/traces/"+id, http.StatusOK)
	var td TraceData
	if err := json.Unmarshal(body, &td); err != nil {
		t.Fatal(err)
	}
	if td.TraceID != id || len(td.Spans) != 1 {
		t.Fatalf("got trace %+v", td)
	}

	serveJSON(t, mux, "/debug/traces/ffffffffffffffffffffffffffffffff", http.StatusNotFound)
}

func serveJSON(t *testing.T, h http.Handler, path string, wantStatus int) []byte {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, path, nil)
	rw := &recordingWriter{header: http.Header{}}
	h.ServeHTTP(rw, req)
	if rw.status != wantStatus {
		t.Fatalf("GET %s status %d, want %d: %s", path, rw.status, wantStatus, rw.body.String())
	}
	return rw.body.Bytes()
}

type recordingWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *recordingWriter) Header() http.Header { return w.header }
func (w *recordingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *recordingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}
