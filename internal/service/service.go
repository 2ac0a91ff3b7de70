// Package service exposes the model engines over HTTP: fit a tensor with
// any registered engine, inspect events, forecast, and score anomalies —
// the deployment shape a team monitoring online activity would actually
// run. Handlers are plain net/http so the server embeds anywhere;
// cmd/dspot-serve is the thin binary.
//
//	POST /v1/fit        text/csv long-form tensor → fitted model JSON
//	                    ?engine=dspot|hip|epidemic|funnel|auto
//	                    ?global_only=1&no_growth=1&no_shocks=1&no_cycles=1
//	                    engine=auto answers {"engine","costs","model"}
//	POST /v1/events     model JSON → events per keyword
//	POST /v1/forecast   model JSON → forecast + predicted events
//	                    ?keyword=NAME&horizon=H
//	POST /v1/anomalies  {"model":…, "series":[…], "keyword":…, "threshold":…}
//	GET  /healthz       liveness
//	GET  /readyz        readiness: 503 + JSON reason while booting or the
//	                    job queue is saturated
//	GET  /metrics       Prometheus text exposition (when Metrics is set)
//
// Model JSON bodies are routed to the engine named by their "engine" field;
// bodies without one (the pre-engine Δ-SPOT wire format) keep decoding as
// Δ-SPOT models, so existing clients are unaffected.
//
// With a Registry (and optionally a jobs Engine) the server additionally
// exposes the stateful serving layer — async fit jobs, server-side models
// and incremental streams; see stateful.go for the endpoint set.
//
// This package deliberately never imports internal/core — everything model
// routes through internal/engine, and CI enforces the import boundary
// (internal/dataset is imported for CSV tensor parsing only).
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dspot/internal/admit"
	"dspot/internal/dataset"
	"dspot/internal/engine"
	"dspot/internal/jobs"
	"dspot/internal/obs/trace"
	"dspot/internal/registry"
	"dspot/internal/tensor"
)

// MaxBodyBytes is the default request-body bound (tensors can be large but
// not unbounded); override per Server via MaxBody.
const MaxBodyBytes = 64 << 20

// Server carries the handler configuration.
type Server struct {
	// Workers is the fitting concurrency per request.
	Workers int
	// DefaultEngine names the model engine used when a fit request carries
	// no ?engine= parameter ("" selects engine.Default, the Δ-SPOT core).
	DefaultEngine string
	// MaxBody bounds request bodies in bytes (0 selects MaxBodyBytes).
	MaxBody int64
	// Metrics, when non-nil, instruments every endpoint (request counts,
	// latency histograms, in-flight gauge, response sizes, fit-stage
	// timings) and serves the registry at GET /metrics.
	Metrics *Metrics
	// Logger, when non-nil, emits one structured line per request plus
	// fit summaries.
	Logger *slog.Logger
	// Registry, when non-nil, enables the stateful model/stream endpoints
	// (GET/DELETE /v1/models/{id}, forecasts and events served from stored
	// models, POST /v1/streams/{id}/append).
	Registry *registry.Registry
	// Jobs, when non-nil alongside Registry, enables the async fit-job
	// endpoints (POST /v1/jobs/fit and friends).
	Jobs *jobs.Engine
	// Ready, when non-nil, gates GET /readyz: a non-nil return means the
	// server is alive but should not receive traffic yet (registry still
	// loading, dependencies warming up). Independently of Ready, /readyz
	// also reports unready while the job queue is saturated.
	Ready func() error
	// Tracer, when non-nil, traces every request: an http.request span per
	// call (honouring inbound W3C traceparent headers, echoing X-Trace-Id),
	// fit-stage child spans, and — when the tracer has a flight recorder —
	// the GET /debug/traces[/{id}] endpoints serving completed traces.
	Tracer *trace.Tracer
	// Breakers, when non-nil, guards every fit with a per-engine circuit
	// breaker: consecutive fit failures open it, open breakers shed fit
	// requests with a structured 503, and /readyz enumerates open breakers.
	// Build with NewBreakerSet to mirror state into engine_breaker_state.
	Breakers *admit.BreakerSet
	// AppendBudget, when positive, sheds stream appends with 429 while the
	// smoothed append latency exceeds it (a request deadline tightens the
	// budget further). Zero disables the gate except for requests that
	// carry their own deadline.
	AppendBudget time.Duration

	appendOnce sync.Once
	appendLat  *admit.EWMA
}

// Handler returns the routed http.Handler, instrumented when Metrics
// and/or Logger are set.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(path string, h http.HandlerFunc) {
		mux.Handle(path, instrument(path, s.Metrics, s.Logger, s.Tracer, h))
	}
	route("/healthz", s.handleHealth)
	route("/readyz", s.handleReady)
	route("/v1/fit", s.handleFit)
	route("/v1/events", s.handleEvents)
	route("/v1/forecast", s.handleForecast)
	route("/v1/anomalies", s.handleAnomalies)
	s.statefulRoutes(route)
	if s.Metrics != nil {
		// Not instrumented: scrapes should not move the request metrics.
		mux.Handle("/metrics", s.Metrics.Registry.Handler())
	}
	if rec := s.Tracer.Recorder(); rec != nil {
		// Not instrumented either: reading traces should not create them.
		mux.Handle("GET /debug/traces", rec.ListHandler())
		mux.Handle("GET /debug/traces/{id}", rec.GetHandler())
	}
	return mux
}

func (s *Server) workers() int {
	if s.Workers <= 0 {
		return 4
	}
	return s.Workers
}

func (s *Server) maxBody() int64 {
	if s.MaxBody <= 0 {
		return MaxBodyBytes
	}
	return s.MaxBody
}

// bodyError maps a request-body parse failure to a status code: 413 when
// the MaxBytesReader limit tripped, 400 otherwise.
func bodyError(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{
		"error": fmt.Sprintf(format, args...),
	})
}

// writeJSON encodes v as the response body. Encode failures after the
// header is sent cannot be reported to the client, but silently swallowing
// them made truncated responses undiagnosable — log them when a Logger is
// configured.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil && s.Logger != nil {
		s.Logger.Error("response encode failed", "err", err)
	}
}

// requireMethod gates a handler to one method, answering 405 with the
// mandatory Allow header otherwise (RFC 9110 §15.5.6).
func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		httpError(w, http.StatusMethodNotAllowed, "use %s", method)
		return false
	}
	return true
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	return requireMethod(w, r, http.MethodPost)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	s.writeJSON(w, map[string]string{"status": "ok"})
}

// handleReady is the readiness probe, distinct from /healthz liveness: a
// live process may still be loading its registry, have a saturated job
// queue, or be shedding an engine behind an open breaker — routing traffic
// to it then only turns into 5xxs downstream. Unready answers 503 with
// every tripped gate enumerated ("reasons"), the first one doubling as the
// single "reason" older probes parse, so operators see *why* from the
// probe output alone.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	var reasons []string
	if s.Ready != nil {
		if err := s.Ready(); err != nil {
			reasons = append(reasons, err.Error())
		}
	}
	if s.Jobs != nil && s.Jobs.Saturated() {
		reasons = append(reasons, "job queue saturated")
	}
	for _, name := range s.Breakers.Open() {
		reasons = append(reasons, "engine breaker open: "+name)
	}
	if len(reasons) > 0 {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status": "unavailable", "reason": reasons[0], "reasons": reasons,
		})
		return
	}
	s.writeJSON(w, map[string]string{"status": "ready"})
}

func boolParam(r *http.Request, name string) bool {
	v := r.URL.Query().Get(name)
	return v == "1" || v == "true"
}

// engineParam resolves the optional ?engine= query (falling back to the
// server default), answering 400 itself on an unknown name. engine.Auto is
// a valid selection for fit endpoints.
func (s *Server) engineParam(w http.ResponseWriter, r *http.Request) (string, bool) {
	name := r.URL.Query().Get("engine")
	if name == "" {
		name = s.DefaultEngine
	}
	if name == "" {
		name = engine.Default
	}
	if name != engine.Auto {
		if _, err := engine.Lookup(name); err != nil {
			httpError(w, http.StatusBadRequest,
				"unknown engine %q (registered: %v, or %q)", name, engine.Names(), engine.Auto)
			return "", false
		}
	}
	return name, true
}

// fitOptions builds the engine-independent fit options from the shared
// query conventions.
func (s *Server) fitOptions(r *http.Request) engine.FitOptions {
	return engine.FitOptions{
		Workers:       s.workers(),
		Prevalidated:  true,
		GlobalOnly:    boolParam(r, "global_only"),
		DisableGrowth: boolParam(r, "no_growth"),
		DisableShocks: boolParam(r, "no_shocks"),
		DisableCycles: boolParam(r, "no_cycles"),
		MaxShocks:     0,
		// A disconnecting client (or server shutdown draining this
		// request) cancels the fit instead of leaking it to completion.
		Context: r.Context(),
	}
}

func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	engName, ok := s.engineParam(w, r)
	if !ok {
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody())
	x, err := dataset.ReadCSV(body)
	if err != nil {
		httpError(w, bodyError(err), "parsing tensor: %v", err)
		return
	}
	// Validate at the boundary so degenerate numbers (Inf, negative counts)
	// answer 400 bad input, not 422 fit-failed. Prevalidated tells the
	// engines not to repeat the O(d·l·n) scan.
	if err := x.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "invalid tensor: %v", err)
		return
	}
	// Breaker check sits after input validation: bad input answers 400 as
	// before, only a healthy-looking request can be shed by a sick engine.
	var release func(failure bool)
	if br := s.breakerFor(engName); br != nil {
		var admitted bool
		if release, admitted = br.Acquire(); !admitted {
			s.shedBreakerOpen(w, engName, br)
			return
		}
	}
	opts := s.fitOptions(r)
	var ft *engine.FitTrace
	if s.Metrics != nil || s.Logger != nil {
		ft = engine.NewFitTrace()
		opts.Progress = ft.Hook()
	}
	// Mirror fit stage completions as child spans of the request span.
	opts.Progress = chainProgress(opts.Progress,
		fitSpanHook(s.Tracer, trace.SpanContextOf(r.Context()), engName))
	m, costs, engName, err := fitWithEngine(x, opts, engName)
	if ft != nil {
		rep := ft.Report()
		s.Metrics.ObserveFitReport(rep)
		if s.Logger != nil {
			s.Logger.Info("fit",
				"engine", engName,
				"keywords", x.D(), "locations", x.L(), "ticks", x.N(),
				"lm_iterations", rep.LMIterations,
				"shocks_tried", rep.ShocksTried,
				"shocks_accepted", rep.ShocksAccepted,
				"global_duration", rep.GlobalDuration,
				"local_duration", rep.LocalDuration,
				"err", err)
		}
	}
	if err != nil {
		if release != nil {
			// A client hang-up is not an engine failure; everything else
			// (including a deadline blown inside the fit) counts.
			release(!errors.Is(err, context.Canceled))
		}
		httpError(w, http.StatusUnprocessableEntity, "fitting: %v", err)
		return
	}
	if release != nil {
		release(false)
	}
	s.Metrics.ObserveFit(engName)
	s.writeModel(w, m, costs)
}

// fitWithEngine fits x with the named engine, or under engine.Auto with
// every engine (AutoFit). It returns the model, the auto cost table (nil for
// a named fit) and the name of the engine that produced the model: the auto
// winner's once there is one, engName otherwise.
func fitWithEngine(x *tensor.Tensor, opts engine.FitOptions, engName string) (engine.Model, map[string]float64, string, error) {
	if engName == engine.Auto {
		m, costs, err := engine.AutoFit(x, opts)
		if m != nil {
			engName = m.EngineName()
		}
		return m, costs, engName, err
	}
	e, err := engine.Lookup(engName)
	if err != nil {
		return nil, nil, engName, err
	}
	m, err := e.Fit(x, opts)
	return m, nil, engName, err
}

// writeModel answers a fit with the model in its engine's wire form. Auto
// fits (costs non-nil) wrap it in an envelope carrying the winning engine
// and the per-engine MDL cost table.
func (s *Server) writeModel(w http.ResponseWriter, m engine.Model, costs map[string]float64) {
	e, err := engine.Lookup(m.EngineName())
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding model: %v", err)
		return
	}
	var buf bytes.Buffer
	if err := e.EncodeModel(&buf, m); err != nil {
		httpError(w, http.StatusInternalServerError, "encoding model: %v", err)
		return
	}
	if costs == nil {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(buf.Bytes())
		return
	}
	s.writeJSON(w, map[string]any{
		"engine": m.EngineName(),
		"costs":  costs,
		"model":  json.RawMessage(buf.Bytes()),
	})
}

// readModel parses a model JSON request body, whatever engine produced it.
func (s *Server) readModel(w http.ResponseWriter, r *http.Request) (engine.Model, bool) {
	body := http.MaxBytesReader(w, r.Body, s.maxBody())
	raw, err := io.ReadAll(body)
	if err != nil {
		httpError(w, bodyError(err), "reading model: %v", err)
		return nil, false
	}
	m, err := decodeModelJSON(raw)
	if err != nil {
		httpError(w, http.StatusBadRequest, "parsing model: %v", err)
		return nil, false
	}
	return m, true
}

// decodeModelJSON routes a model body to the engine named by its "engine"
// field. Bodies without one are the pre-engine Δ-SPOT wire format, which
// engine.Decode("") handles, so existing clients keep working.
func decodeModelJSON(raw []byte) (engine.Model, error) {
	var probe struct {
		Engine string `json:"engine"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, err
	}
	return engine.Decode(probe.Engine, bytes.NewReader(raw))
}

// EventJSON is one external event in wire form.
type EventJSON = engine.Event

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	m, ok := s.readModel(w, r)
	if !ok {
		return
	}
	s.writeJSON(w, map[string]any{"events": eventsOf(m)})
}

// eventsOf renders a model's detected events in wire form. A model that
// lists no events answers an empty list, not an error or null.
func eventsOf(m engine.Model) []EventJSON {
	if l, ok := m.(engine.EventLister); ok {
		return l.Events()
	}
	return []EventJSON{}
}

// ForecastJSON is the forecast wire form.
type ForecastJSON struct {
	Keyword  string                  `json:"keyword"`
	Horizon  int                     `json:"horizon"`
	Forecast []float64               `json:"forecast"`
	Events   []engine.PredictedEvent `json:"predicted_events"`
}

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	m, ok := s.readModel(w, r)
	if !ok {
		return
	}
	s.writeForecast(w, r, m)
}

// keywordParam resolves the optional ?keyword= query against the model's
// keyword axis (default: the first keyword), answering 400 itself on an
// unknown name.
func keywordParam(w http.ResponseWriter, r *http.Request, m engine.Model) (string, bool) {
	kws := m.Keywords()
	name := r.URL.Query().Get("keyword")
	if name == "" {
		if len(kws) == 0 {
			httpError(w, http.StatusBadRequest, "model has no keywords")
			return "", false
		}
		return kws[0], true
	}
	for _, kw := range kws {
		if kw == name {
			return name, true
		}
	}
	httpError(w, http.StatusBadRequest, "unknown keyword %q", name)
	return "", false
}

// horizonParam parses the optional ?horizon= query (default 52), answering
// 400 itself when out of range.
func horizonParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	hs := r.URL.Query().Get("horizon")
	if hs == "" {
		return 52, true
	}
	h, err := strconv.Atoi(hs)
	if err != nil || h < 1 || h > 100000 {
		httpError(w, http.StatusBadRequest, "bad horizon %q", hs)
		return 0, false
	}
	return h, true
}

// writeForecast answers a forecast request for m using the shared query
// conventions (?keyword=, ?horizon=), routed through the model's engine.
func (s *Server) writeForecast(w http.ResponseWriter, r *http.Request, m engine.Model) {
	kw, ok := keywordParam(w, r, m)
	if !ok {
		return
	}
	horizon, ok := horizonParam(w, r)
	if !ok {
		return
	}
	e, err := engine.Lookup(m.EngineName())
	if err != nil {
		httpError(w, http.StatusInternalServerError, "model engine: %v", err)
		return
	}
	fc, err := e.Forecast(m, kw, horizon)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "forecasting: %v", err)
		return
	}
	out := ForecastJSON{Keyword: kw, Horizon: horizon, Forecast: fc}
	if ef, ok := m.(engine.EventForecaster); ok {
		// Event prediction shares keyword resolution with the forecast, so
		// an error here would already have surfaced above.
		out.Events, _ = ef.PredictedEvents(kw, horizon)
	}
	s.writeJSON(w, out)
}

// anomaliesRequest is the /v1/anomalies body.
type anomaliesRequest struct {
	Model     json.RawMessage `json:"model"`
	Series    []float64       `json:"series"`
	Keyword   string          `json:"keyword"`
	Threshold float64         `json:"threshold"`
}

func (s *Server) handleAnomalies(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody())
	var req anomaliesRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, bodyError(err), "parsing request: %v", err)
		return
	}
	m, err := decodeModelJSON(req.Model)
	if err != nil {
		httpError(w, http.StatusBadRequest, "parsing model: %v", err)
		return
	}
	if len(req.Series) == 0 {
		httpError(w, http.StatusBadRequest, "empty series")
		return
	}
	scorer, ok := m.(engine.AnomalyScorer)
	if !ok {
		httpError(w, http.StatusBadRequest,
			"engine %q does not score anomalies", m.EngineName())
		return
	}
	anomalies, err := scorer.Anomalies(req.Keyword, req.Series, req.Threshold)
	if err != nil {
		httpError(w, http.StatusBadRequest, "scoring: %v", err)
		return
	}
	s.writeJSON(w, map[string]any{"anomalies": anomalies})
}
