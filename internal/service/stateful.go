// Stateful serving layer: models live server-side in a registry, fits run
// asynchronously on a jobs engine, and streams absorb ticks incrementally:
// every fitted stream steps its checkpoint per tick, and the mode is the
// debt policy that schedules its consolidating refit.
//
//	POST   /v1/jobs/fit             text/csv tensor → 202 {job_id, model_id}
//	                                ?model_id=ID&global_only=1&no_growth=1&…
//	GET    /v1/jobs                 list retained job snapshots
//	GET    /v1/jobs/{id}            job snapshot (state, error, result)
//	DELETE /v1/jobs/{id}            cancel → 202 (409 once terminal)
//	GET    /v1/models               list stored models
//	GET    /v1/models/{id}          model JSON
//	DELETE /v1/models/{id}          → 204
//	GET    /v1/models/{id}/forecast ?keyword=NAME&horizon=H
//	GET    /v1/models/{id}/events   detected events
//	POST   /v1/streams/{id}/append  {"values":[…]} (null = missing tick)
//	                                ?refit_every=N (honored on existing streams)
//	                                ?mode=batch|incremental (debt policy, O(1) switch)
//	POST   /v1/streams/{id}/refit   force a full consolidating refit now
//	GET    /v1/streams              list streams
//	GET    /v1/streams/{id}         stream status (mode, refit debt and limit, cadence)
//	GET    /v1/streams/{id}/forecast ?horizon=H (409 until first fit)
//	DELETE /v1/streams/{id}         → 204
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"dspot/internal/admit"
	"dspot/internal/dataset"
	"dspot/internal/engine"
	"dspot/internal/jobs"
	"dspot/internal/obs/trace"
	"dspot/internal/registry"
	"dspot/internal/tensor"
)

// statefulRoutes registers the registry- and jobs-backed endpoints on route
// (a no-op without a Registry; job endpoints additionally need Jobs).
func (s *Server) statefulRoutes(route func(string, http.HandlerFunc)) {
	if s.Registry == nil {
		return
	}
	if s.Jobs != nil {
		route("POST /v1/jobs/fit", s.handleJobFit)
		route("GET /v1/jobs", s.handleJobList)
		route("GET /v1/jobs/{id}", s.handleJobGet)
		route("DELETE /v1/jobs/{id}", s.handleJobCancel)
	}
	route("GET /v1/models", s.handleModelList)
	route("GET /v1/models/{id}", s.handleModelGet)
	route("DELETE /v1/models/{id}", s.handleModelDelete)
	route("GET /v1/models/{id}/forecast", s.handleModelForecast)
	route("GET /v1/models/{id}/events", s.handleModelEvents)
	route("POST /v1/streams/{id}/append", s.handleStreamAppend)
	route("POST /v1/streams/{id}/refit", s.handleStreamRefit)
	route("GET /v1/streams", s.handleStreamList)
	route("GET /v1/streams/{id}", s.handleStreamGet)
	route("GET /v1/streams/{id}/forecast", s.handleStreamForecast)
	route("DELETE /v1/streams/{id}", s.handleStreamDelete)
}

// registryError maps registry errors onto status codes.
func registryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, registry.ErrNotFound):
		httpError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, registry.ErrBadID), errors.Is(err, registry.ErrBadRequest):
		httpError(w, http.StatusBadRequest, "%v", err)
	default:
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

// newModelID generates a model id for jobs that did not name one.
func newModelID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: randomness unavailable: %v", err))
	}
	return "m-" + hex.EncodeToString(b[:])
}

// FitJobResult is the stored result of a completed fit job.
type FitJobResult struct {
	ModelID   string `json:"model_id"`
	Version   int    `json:"version"`
	Engine    string `json:"engine"`
	Keywords  int    `json:"keywords"`
	Locations int    `json:"locations"`
	Ticks     int    `json:"ticks"`
	// Costs is the per-engine MDL cost table, present only for auto fits.
	Costs          map[string]float64 `json:"costs,omitempty"`
	Shocks         int                `json:"shocks"`
	LMIterations   int                `json:"lm_iterations"`
	ShocksTried    int                `json:"shocks_tried"`
	ShocksAccepted int                `json:"shocks_accepted"`
	FitSeconds     float64            `json:"fit_seconds"`
}

// handleJobFit parses the tensor synchronously (bad input fails fast with a
// 400, before consuming a queue slot) and enqueues the fit. The fit itself
// runs on the jobs engine and installs its model into the registry.
func (s *Server) handleJobFit(w http.ResponseWriter, r *http.Request) {
	// Engine resolution fails fast with a 400, before the body is parsed or
	// a queue slot is consumed.
	engName, ok := s.engineParam(w, r)
	if !ok {
		return
	}
	// Breaker early-reject (non-reserving): no point parsing a tensor and
	// consuming a queue slot for an engine that will shed the fit at run
	// time anyway. The reserving Acquire happens in runFitJob.
	if br := s.breakerFor(engName); br != nil && !br.Allow() {
		s.shedBreakerOpen(w, engName, br)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody())
	x, err := dataset.ReadCSV(body)
	if err != nil {
		httpError(w, bodyError(err), "parsing tensor: %v", err)
		return
	}
	// Same boundary validation as the sync endpoint: reject degenerate
	// numbers before the tensor consumes a queue slot. The fit job below
	// carries Prevalidated so the scan is not repeated per fit.
	if err := x.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "invalid tensor: %v", err)
		return
	}
	modelID := r.URL.Query().Get("model_id")
	if modelID == "" {
		modelID = newModelID()
	} else if err := registry.ValidateID(modelID); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts := s.fitOptions(r)
	// The request context dies when the 202 goes out; the job context is
	// installed in runFitJob instead.
	opts.Context = nil

	// SubmitCtx: the request span (in r.Context()) becomes the parent of
	// the job's queue-wait and run spans, so the async fit stays one trace
	// past the 202 below.
	jobID, err := s.Jobs.SubmitCtx(r.Context(), "fit", func(ctx context.Context) (any, error) {
		return s.runFitJob(ctx, x, opts, engName, modelID)
	})
	if err != nil {
		var over *jobs.OverBudgetError
		switch {
		case errors.As(err, &over):
			// Deadline-aware admission: the queue has room, but this request
			// cannot make its budget — reject now rather than time out later.
			s.shed(w, http.StatusTooManyRequests, shedResponse{
				Error:             err.Error(),
				Reason:            ShedOverBudget,
				QueueDepth:        s.Jobs.QueueLen(),
				QueueCap:          s.Jobs.QueueCap(),
				RetryAfterSeconds: admit.RetryAfterSeconds(over.Estimate),
			})
		case errors.Is(err, jobs.ErrQueueFull):
			s.shed(w, http.StatusServiceUnavailable, shedResponse{
				Error:      err.Error(),
				Reason:     ShedQueueFull,
				QueueDepth: s.Jobs.QueueLen(),
				QueueCap:   s.Jobs.QueueCap(),
			})
		default:
			httpError(w, http.StatusServiceUnavailable, "submitting job: %v", err)
		}
		return
	}
	w.WriteHeader(http.StatusAccepted)
	s.writeJSON(w, map[string]string{"job_id": jobID, "model_id": modelID})
}

// runFitJob is the body of one async fit: fit, observe, store. The job
// context rides down through FitOptions.Context into every fitting layer,
// so a cancel, job timeout, or server shutdown stops the compute itself
// within about one LM iteration — the job then finishes as cancelled
// through the jobs engine's normal path, not by abandonment.
func (s *Server) runFitJob(ctx context.Context, x *tensor.Tensor, opts engine.FitOptions, engName, modelID string) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The reserving breaker bracket: the Allow in handleJobFit was a
	// snapshot at submit time; by run time the breaker may have tripped.
	var release func(failure bool)
	if br := s.breakerFor(engName); br != nil {
		var admitted bool
		if release, admitted = br.Acquire(); !admitted {
			return nil, fmt.Errorf("engine %q circuit breaker open", engName)
		}
	}
	ft := engine.NewFitTrace()
	// The jobs engine installed the job.run span in ctx; fit-stage spans
	// become its children.
	opts.Progress = chainProgress(ft.Hook(),
		fitSpanHook(s.Tracer, trace.SpanContextOf(ctx), engName))
	opts.Context = ctx
	m, costs, engName, err := fitWithEngine(x, opts, engName)
	rep := ft.Report()
	s.Metrics.ObserveFitReport(rep)
	if span := trace.SpanFromContext(ctx); span != nil {
		span.SetAttr("engine", engName)
		span.SetAttr("model_id", modelID)
		span.SetAttr("keywords", rep.Keywords)
		span.SetAttr("lm_iterations", rep.LMIterations)
		span.SetAttr("shocks_accepted", rep.ShocksAccepted)
	}
	if s.Logger != nil {
		s.Logger.InfoContext(ctx, "job fit",
			"engine", engName,
			"model_id", modelID, "keywords", x.D(), "locations", x.L(),
			"ticks", x.N(), "lm_iterations", rep.LMIterations,
			"shocks_accepted", rep.ShocksAccepted, "err", err)
	}
	if err != nil {
		if release != nil {
			// Cancellation says nothing about engine health; a timeout or a
			// genuine fit failure is exactly what the breaker counts.
			release(!errors.Is(err, context.Canceled))
		}
		return nil, fmt.Errorf("fitting: %w", err)
	}
	if release != nil {
		release(false)
	}
	s.Metrics.ObserveFit(engName)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	info, err := s.Registry.Put(modelID, m)
	if err != nil {
		// Model is fine, the disk write failed — worth one retry.
		return nil, jobs.Transient(err)
	}
	return FitJobResult{
		ModelID: info.ID, Version: info.Version, Engine: info.Engine,
		Keywords: info.Keywords, Locations: info.Locations, Ticks: info.Ticks,
		Costs:          costs,
		Shocks:         len(eventsOf(m)),
		LMIterations:   rep.LMIterations,
		ShocksTried:    rep.ShocksTried,
		ShocksAccepted: rep.ShocksAccepted,
		FitSeconds:     rep.TotalDuration().Seconds(),
	}, nil
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, map[string]any{"jobs": s.Jobs.List()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	snap, err := s.Jobs.Get(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.writeJSON(w, snap)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	snap, err := s.Jobs.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		httpError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, jobs.ErrTerminal):
		httpError(w, http.StatusConflict, "job %s already %s", snap.ID, snap.State)
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
	default:
		w.WriteHeader(http.StatusAccepted)
		s.writeJSON(w, snap)
	}
}

func (s *Server) handleModelList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, map[string]any{"models": s.Registry.List()})
}

func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	m, err := s.Registry.Get(r.PathValue("id"))
	if err != nil {
		registryError(w, err)
		return
	}
	s.writeModel(w, m, nil)
}

func (s *Server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.Registry.Delete(r.PathValue("id")); err != nil {
		registryError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleModelForecast(w http.ResponseWriter, r *http.Request) {
	m, err := s.Registry.Get(r.PathValue("id"))
	if err != nil {
		registryError(w, err)
		return
	}
	s.writeForecast(w, r, m)
}

func (s *Server) handleModelEvents(w http.ResponseWriter, r *http.Request) {
	m, err := s.Registry.Get(r.PathValue("id"))
	if err != nil {
		registryError(w, err)
		return
	}
	s.writeJSON(w, map[string]any{"events": eventsOf(m)})
}

// appendRequest is the /v1/streams/{id}/append body. Values uses null for
// missing ticks (JSON cannot carry NaN). At, when present, positions the
// first value at that absolute tick index: ticks the stream already holds
// drop idempotently (a replaying producer is a no-op), a forward gap is
// bridged with missing ticks, and a gap past the stream's limit answers 400.
type appendRequest struct {
	Values []*float64 `json:"values"`
	At     *int64     `json:"at,omitempty"`
}

func (s *Server) handleStreamAppend(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Append-lag admission: when the smoothed append latency already
	// exceeds the budget this request could tolerate, more ingest only
	// deepens the backlog — shed with 429 before reading the body.
	if budget, gated := s.appendBudget(r); gated {
		if est := s.appendEWMA().Estimate(); est > budget {
			s.shed(w, http.StatusTooManyRequests, shedResponse{
				Error: fmt.Sprintf("append latency %v exceeds admission budget %v",
					est.Round(time.Millisecond), budget.Round(time.Millisecond)),
				Reason:            ShedAppendLag,
				RetryAfterSeconds: admit.RetryAfterSeconds(est),
			})
			return
		}
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody())
	var req appendRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, bodyError(err), "parsing request: %v", err)
		return
	}
	if len(req.Values) == 0 {
		httpError(w, http.StatusBadRequest, "empty values")
		return
	}
	values := make([]float64, len(req.Values))
	for i, p := range req.Values {
		if p == nil {
			values[i] = tensor.Missing
			continue
		}
		if *p < 0 || math.IsInf(*p, 0) || math.IsNaN(*p) {
			httpError(w, http.StatusBadRequest, "bad value %g at index %d", *p, i)
			return
		}
		values[i] = *p
	}
	opts := registry.AppendOptions{}
	if re := r.URL.Query().Get("refit_every"); re != "" {
		n, err := strconv.Atoi(re)
		if err != nil || n < 1 || n > 1_000_000 {
			httpError(w, http.StatusBadRequest, "bad refit_every %q", re)
			return
		}
		opts.RefitEvery = n
	}
	if ret := r.URL.Query().Get("retention"); ret != "" {
		n, err := strconv.Atoi(ret)
		if err != nil || n < 0 || n > 100_000_000 {
			httpError(w, http.StatusBadRequest, "bad retention %q", ret)
			return
		}
		opts.Retention = n
	}
	if req.At != nil {
		if *req.At < 0 {
			httpError(w, http.StatusBadRequest, "bad at %d: absolute tick index must be >= 0", *req.At)
			return
		}
		opts.At, opts.AtSet = *req.At, true
	}
	// The mode string is passed through verbatim; the registry owns the
	// vocabulary ("batch"/"incremental") and rejects unknown names with
	// ErrBadRequest, which maps to a 400 below.
	opts.Mode = r.URL.Query().Get("mode")
	start := time.Now()
	status, err := s.Registry.AppendStream(r.Context(), id, values, opts)
	if err != nil {
		// ErrNotFound: the stream was deleted while this append waited.
		registryError(w, err)
		return
	}
	// Only successful appends feed the lag estimate: a 400 is cheap and
	// says nothing about ingest health.
	s.appendEWMA().Observe(time.Since(start))
	s.writeJSON(w, status)
}

// handleStreamRefit forces a full consolidating refit, regardless of the
// stream's cadence, pending debt or retry backoff.
func (s *Server) handleStreamRefit(w http.ResponseWriter, r *http.Request) {
	status, err := s.Registry.RefitStream(r.Context(), r.PathValue("id"))
	if err != nil {
		registryError(w, err)
		return
	}
	s.writeJSON(w, status)
}

func (s *Server) handleStreamList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, map[string]any{"streams": s.Registry.ListStreams()})
}

func (s *Server) handleStreamGet(w http.ResponseWriter, r *http.Request) {
	status, err := s.Registry.StreamStatusFor(r.PathValue("id"))
	if err != nil {
		registryError(w, err)
		return
	}
	s.writeJSON(w, status)
}

func (s *Server) handleStreamForecast(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	horizon, ok := horizonParam(w, r)
	if !ok {
		return
	}
	fc, err := s.Registry.StreamForecast(id, horizon)
	if err != nil {
		registryError(w, err)
		return
	}
	if fc == nil {
		httpError(w, http.StatusConflict, "stream %q has no fitted model yet", id)
		return
	}
	s.writeJSON(w, map[string]any{"id": id, "horizon": horizon, "forecast": fc})
}

func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.Registry.DeleteStream(r.PathValue("id")); err != nil {
		registryError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
