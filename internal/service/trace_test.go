package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dspot/internal/core"
	"dspot/internal/jobs"
	"dspot/internal/obs/trace"
	"dspot/internal/registry"
)

// syncBuffer is a mutex-guarded log sink safe for concurrent handlers.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// tracedServer builds a full stateful server with tracing enabled and JSON
// logs captured, mirroring how dspot-serve wires the pieces.
func tracedServer(t *testing.T) (*httptest.Server, *trace.Recorder, *syncBuffer) {
	t.Helper()
	return tracedServerWith(t, trace.RecorderOptions{})
}

// tracedServerWith is tracedServer over a flight recorder with the given
// bounds.
func tracedServerWith(t *testing.T, opts trace.RecorderOptions) (*httptest.Server, *trace.Recorder, *syncBuffer) {
	t.Helper()
	rec := trace.NewRecorder(opts)
	tracer := trace.NewTracer(rec)
	reg, err := registry.Open(registry.Options{
		StreamFit: core.FitOptions{
			Workers: 1, DisableGrowth: true, MaxShocks: 2,
		},
		Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	logs := &syncBuffer{}
	logger := trace.WrapLogger(slog.New(slog.NewJSONHandler(logs, nil)))
	engine := jobs.New(jobs.Options{
		Workers: 2, Logger: logger, Tracer: tracer,
	})
	t.Cleanup(engine.Close)
	srv := httptest.NewServer((&Server{
		Workers:  1,
		Logger:   logger,
		Registry: reg,
		Jobs:     engine,
		Tracer:   tracer,
	}).Handler())
	t.Cleanup(srv.Close)
	return srv, rec, logs
}

// fetchTrace polls /debug/traces/{id} until the named spans all appear
// (spans can land shortly after the job turns terminal, since the run span
// ends after the engine's bookkeeping).
func fetchTrace(t *testing.T, base, traceID string, want ...string) trace.TraceData {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var td trace.TraceData
	for {
		resp := getJSON(t, base+"/debug/traces/"+traceID, &td)
		if resp.StatusCode == http.StatusOK {
			names := make(map[string]bool, len(td.Spans))
			for _, sp := range td.Spans {
				names[sp.Name] = true
			}
			missing := false
			for _, w := range want {
				if !names[w] {
					missing = true
				}
			}
			if !missing {
				return td
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never contained %v (got %+v)", traceID, want, td)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func spanByName(td trace.TraceData, name string) *trace.SpanData {
	for i := range td.Spans {
		if td.Spans[i].Name == name {
			return &td.Spans[i]
		}
	}
	return nil
}

func attrOf(sp *trace.SpanData, key string) (any, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// TestJobFitTraceEndToEnd is the acceptance path: one POST /v1/jobs/fit
// produces one trace holding the HTTP span, the job queue-wait and run
// spans, and the fit-stage spans with LM-iteration attributes — and the
// same trace id appears on the request and job log lines.
func TestJobFitTraceEndToEnd(t *testing.T) {
	srv, _, logs := tracedServer(t)

	csv := smallTensorCSV(t)
	req, err := http.NewRequest(http.MethodPost,
		srv.URL+"/v1/jobs/fit?global_only=1&no_growth=1", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	var acc struct {
		JobID string `json:"job_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("jobs/fit status %d", resp.StatusCode)
	}
	if len(traceID) != 32 {
		t.Fatalf("X-Trace-Id %q, want 32 hex chars", traceID)
	}
	if snap := waitJob(t, srv.URL, acc.JobID); snap.State != jobs.StateDone {
		t.Fatalf("job state %s (%s)", snap.State, snap.Error)
	}

	td := fetchTrace(t, srv.URL, traceID,
		"http.request", "job.wait", "job.run", "fit.global", "fit.keyword")

	// Parent links: job spans under the HTTP span, fit stages under run.
	httpSpan := spanByName(td, "http.request")
	runSpan := spanByName(td, "job.run")
	waitSpan := spanByName(td, "job.wait")
	global := spanByName(td, "fit.global")
	keyword := spanByName(td, "fit.keyword")
	if waitSpan.ParentSpanID != httpSpan.SpanID || runSpan.ParentSpanID != httpSpan.SpanID {
		t.Errorf("job spans not parented to the HTTP span: wait→%s run→%s http=%s",
			waitSpan.ParentSpanID, runSpan.ParentSpanID, httpSpan.SpanID)
	}
	if global.ParentSpanID != runSpan.SpanID || keyword.ParentSpanID != runSpan.SpanID {
		t.Errorf("fit spans not parented to the run span: global→%s keyword→%s run=%s",
			global.ParentSpanID, keyword.ParentSpanID, runSpan.SpanID)
	}
	for _, sp := range td.Spans {
		if sp.TraceID != traceID {
			t.Errorf("span %s trace %s, want %s", sp.Name, sp.TraceID, traceID)
		}
	}
	if v, ok := attrOf(keyword, "lm_iterations"); !ok {
		t.Error("fit.keyword span missing lm_iterations attr")
	} else if f, isNum := v.(float64); isNum && f < 1 { // JSON numbers decode as float64
		t.Errorf("fit.keyword lm_iterations %v, want >= 1", v)
	}
	if v, ok := attrOf(keyword, "lm_stalls"); !ok {
		t.Error("fit.keyword span missing lm_stalls attr")
	} else if f, isNum := v.(float64); isNum && f < 0 {
		t.Errorf("fit.keyword lm_stalls %v, want >= 0", v)
	}
	if v, ok := attrOf(runSpan, "state"); !ok || v != "done" {
		t.Errorf("job.run state attr %v, want done", v)
	}
	if v, ok := attrOf(httpSpan, "route"); !ok || v != "POST /v1/jobs/fit" {
		t.Errorf("http.request route attr %v", v)
	}

	// Log correlation: the request line and the job lifecycle lines carry
	// the same trace id.
	out := logs.String()
	var requestLine, finishedLine bool
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, traceID) {
			continue
		}
		if strings.Contains(line, `"msg":"request"`) &&
			strings.Contains(line, `"route":"POST /v1/jobs/fit"`) {
			requestLine = true
		}
		if strings.Contains(line, `"msg":"job finished"`) {
			finishedLine = true
		}
	}
	if !requestLine {
		t.Errorf("no request log line carries trace_id %s:\n%s", traceID, out)
	}
	if !finishedLine {
		t.Errorf("no job-finished log line carries trace_id %s:\n%s", traceID, out)
	}
}

// TestJobFitTraceSurvivesStatusPolls: every status poll of an async job is
// a trace of its own, and a fit outlasts far more polls than a small flight
// recorder holds. The job's trace must still come back whole — the request
// and queue-wait spans recorded early beside the run and fit spans
// recorded late — because a trace is not evicted while a span in it is
// open. Slow-trace retention is off, so only that rule can keep it.
func TestJobFitTraceSurvivesStatusPolls(t *testing.T) {
	srv, rec, _ := tracedServerWith(t, trace.RecorderOptions{MaxTraces: 8, SlowThreshold: -1})
	resp, err := http.Post(srv.URL+"/v1/jobs/fit?global_only=1&no_growth=1",
		"text/csv", strings.NewReader(smallTensorCSV(t)))
	if err != nil {
		t.Fatal(err)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	var acc struct {
		JobID string `json:"job_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("jobs/fit status %d", resp.StatusCode)
	}
	polls, deadline := 0, time.Now().Add(30*time.Second)
	for {
		var snap jobs.Snapshot
		getJSON(t, srv.URL+"/v1/jobs/"+acc.JobID, &snap)
		polls++
		if snap.State.Terminal() {
			if snap.State != jobs.StateDone {
				t.Fatalf("job state %s (%s)", snap.State, snap.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", acc.JobID)
		}
		time.Sleep(time.Millisecond)
	}
	if polls <= 8 {
		t.Skipf("the job ended after %d polls: too few to overflow the recorder", polls)
	}
	td := fetchTrace(t, srv.URL, traceID,
		"http.request", "job.wait", "job.run", "fit.global", "fit.keyword")
	if n := rec.Len(); n > 8 {
		t.Fatalf("recorder holds %d traces after the job ended, want at most MaxTraces=8", n)
	}
	t.Logf("%d spans survived %d status polls", len(td.Spans), polls)
}

// TestMiddlewareEndsSpanOnPanic: the request span ends even when its
// handler panics. The flight recorder keeps a trace while a span in it is
// open, so a span left open by a panic would pin its trace for good.
func TestMiddlewareEndsSpanOnPanic(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderOptions{MaxTraces: 1})
	tr := trace.NewTracer(rec)
	h := instrument("/boom", nil, nil, tr, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	func() {
		defer func() { _ = recover() }()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/boom", nil))
	}()
	traces := rec.List()
	if len(traces) != 1 || traces[0].Root != "http.request" {
		t.Fatalf("recorder holds %+v, want the panicked request's span", traces)
	}
	_, next := tr.Start(context.Background(), "next")
	next.End()
	if _, ok := rec.Get(traces[0].TraceID); ok {
		t.Fatal("the panicked request's trace is still held open")
	}
}

// TestMiddlewareTraceConcurrent hammers traced endpoints from many
// goroutines; run under -race it pins the span/recorder paths as safe for
// parallel requests with interleaved spans.
func TestMiddlewareTraceConcurrent(t *testing.T) {
	srv, rec, _ := tracedServer(t)
	const clients = 8
	const perClient = 10
	var wg sync.WaitGroup
	ids := make([]string, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				body := `{"values":[1,2,3]}`
				resp, err := http.Post(
					fmt.Sprintf("%s/v1/streams/s%d/append", srv.URL, c),
					"application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				ids[c*perClient+i] = resp.Header.Get("X-Trace-Id")
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if len(id) != 32 {
			t.Fatalf("bad X-Trace-Id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %s across requests", id)
		}
		seen[id] = true
	}
	if got := rec.Len(); got < clients*perClient {
		t.Errorf("recorder holds %d traces, want >= %d", got, clients*perClient)
	}
	// Every trace must contain both the HTTP span and its stream.append
	// child.
	var td trace.TraceData
	if resp := getJSON(t, srv.URL+"/debug/traces/"+ids[0], &td); resp.StatusCode != http.StatusOK {
		t.Fatalf("trace get status %d", resp.StatusCode)
	}
	httpSpan := spanByName(td, "http.request")
	appendSpan := spanByName(td, "stream.append")
	if httpSpan == nil || appendSpan == nil {
		t.Fatalf("trace missing spans: %+v", td)
	}
	if appendSpan.ParentSpanID != httpSpan.SpanID {
		t.Errorf("stream.append parent %s, want %s", appendSpan.ParentSpanID, httpSpan.SpanID)
	}
}

// TestMiddlewareTraceparentRoundTrip checks W3C propagation: an inbound
// traceparent continues that trace (the HTTP span becomes a child of the
// remote span), and a malformed one starts a fresh trace.
func TestMiddlewareTraceparentRoundTrip(t *testing.T) {
	srv, _, _ := tracedServer(t)

	const remoteTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const remoteSpan = "00f067aa0ba902b7"
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+remoteTrace+"-"+remoteSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != remoteTrace {
		t.Fatalf("X-Trace-Id %q, want the inbound trace id %q", got, remoteTrace)
	}
	td := fetchTrace(t, srv.URL, remoteTrace, "http.request")
	if sp := spanByName(td, "http.request"); sp.ParentSpanID != remoteSpan {
		t.Errorf("http span parent %q, want the inbound parent id %q",
			sp.ParentSpanID, remoteSpan)
	}

	// Malformed header: best-effort extraction must fall back to a new
	// trace, not fail the request.
	req2, _ := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
	req2.Header.Set("traceparent", "00-zznothex-bogus-01")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d with malformed traceparent", resp2.StatusCode)
	}
	if id := resp2.Header.Get("X-Trace-Id"); len(id) != 32 || id == remoteTrace {
		t.Fatalf("malformed traceparent produced X-Trace-Id %q", id)
	}
}

// TestTracingDisabledAddsNoAllocs pins the disabled-tracing contract at the
// service layer: with a nil tracer the fit progress chain is exactly the
// metrics hook that shipped before tracing existed — the bridge adds no
// wrapper and no per-event allocations.
func TestTracingDisabledAddsNoAllocs(t *testing.T) {
	var calls int
	base := core.ProgressFunc(func(core.FitEvent) { calls++ })
	hook := chainProgress(base, fitSpanHook(nil, trace.SpanContext{}, "dspot"))
	ev := core.FitEvent{Stage: core.StageKeyword, LMIters: 3}
	if allocs := testing.AllocsPerRun(1000, func() { hook(ev) }); allocs != 0 {
		t.Fatalf("disabled-tracing progress hook allocates %.1f per event, want 0", allocs)
	}
	if calls == 0 {
		t.Fatal("chained hook never reached the metrics hook")
	}
	// And a disabled tracer must not even wrap: the chain returns the
	// original hook untouched.
	if got := fitSpanHook(nil, trace.SpanContext{}, "dspot"); got != nil {
		t.Fatal("fitSpanHook on a nil tracer must return nil")
	}
}
