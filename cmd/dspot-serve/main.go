// Command dspot-serve runs the model-engine HTTP service (Δ-SPOT by
// default; epidemic, FUNNEL and HIP engines selectable per request).
//
//	dspot-serve [-addr :8080] [-workers N] [-default-engine dspot]
//	            [-log-level info] [-log-json]
//	            [-pprof] [-shutdown-timeout 30s]
//	            [-data-dir DIR] [-fit-workers N] [-queue-depth N]
//	            [-job-timeout 15m] [-abandon-grace 2s] [-max-models N]
//	            [-stream-retention N] [-max-refits N]
//	            [-admit-budget D] [-append-budget D]
//	            [-breaker-threshold N] [-breaker-open-for 30s]
//	            [-trace] [-trace-max N] [-trace-slow 1s]
//	            [-runtime-metrics-every 15s]
//
// Endpoints (see internal/service):
//
//	POST /v1/fit        text/csv tensor → model JSON
//	                    ?engine=dspot|hip|epidemic|funnel|auto
//	POST /v1/events     model JSON → detected events
//	POST /v1/forecast   model JSON → forecast + predicted events
//	POST /v1/anomalies  model + series → flagged ticks
//	GET  /healthz       liveness (up as soon as the listener binds)
//	GET  /readyz        readiness (503 while the registry loads in the
//	                    background or the job queue is saturated)
//	GET  /metrics       Prometheus text exposition
//	GET  /debug/traces  trace flight recorder: recent + slow traces
//	                    (/debug/traces/{id} for one trace; with -trace)
//	GET  /debug/pprof/  net/http/pprof profiles (with -pprof)
//
// plus the stateful layer (see internal/service/stateful.go): async fit jobs
// under /v1/jobs, stored models under /v1/models, and incremental streams
// under /v1/streams. With -data-dir the registry persists models and stream
// snapshots there and reloads them on boot, so stored state survives a
// restart; without it state is memory-only.
//
// Every request is logged as a structured line (key=value, or JSON with
// -log-json) and counted in the /metrics registry; fits additionally record
// per-stage timings, LM iteration totals, and MDL shock verdicts. On
// SIGINT/SIGTERM the listener closes, in-flight fits drain for up to
// -shutdown-timeout, then the job engine stops. Cancellation is cooperative
// all the way down: cancelled or timed-out fit jobs, disconnected /v1/fit
// clients, and shutdown all stop the underlying compute within about one LM
// iteration (abandonment after -abandon-grace is only a backstop).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dspot/internal/admit"
	modelengine "dspot/internal/engine"
	"dspot/internal/jobs"
	"dspot/internal/obs"
	"dspot/internal/obs/trace"
	"dspot/internal/registry"
	"dspot/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "fitting concurrency per request")
	defaultEngine := flag.String("default-engine", "",
		"model engine for fit requests without ?engine= (empty: dspot; 'auto' selects by MDL)")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error")
	logJSON := flag.Bool("log-json", false, "log JSON instead of key=value text")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	shutdownTimeout := flag.Duration("shutdown-timeout", 30*time.Second,
		"grace period for in-flight requests on SIGINT/SIGTERM")
	dataDir := flag.String("data-dir", "",
		"directory for persisted models and streams (empty: memory-only)")
	fitWorkers := flag.Int("fit-workers", jobs.DefaultWorkers,
		"async fit-job worker pool size")
	queueDepth := flag.Int("queue-depth", jobs.DefaultQueueDepth,
		"async fit-job queue bound (full queue answers 503)")
	jobTimeout := flag.Duration("job-timeout", jobs.DefaultTimeout,
		"per-job run timeout for async fits")
	abandonGrace := flag.Duration("abandon-grace", jobs.DefaultAbandonGrace,
		"wait for a cancelled fit to stop cooperatively before abandoning it")
	maxModels := flag.Int("max-models", registry.DefaultMaxLoaded,
		"models kept in memory at once (persisted models reload on demand)")
	streamMode := flag.String("stream-mode", "batch",
		"default debt policy for new streams: batch (refit every "+
			"-refit-every ticks) or incremental (tail scan, debt-scheduled "+
			"refits); every fitted stream steps its checkpoint per tick "+
			"(per-append ?mode= overrides)")
	streamRetention := flag.Int("stream-retention", 0,
		"retention horizon in ticks for new streams: older ticks fold into "+
			"checkpointed state and evict (0: unbounded; per-append "+
			"?retention= overrides)")
	maxRefits := flag.Int("max-refits", registry.DefaultMaxConcurrentRefits,
		"concurrent scheduler-admitted stream consolidations (forced "+
			"/refit bypasses the cap)")
	admitBudget := flag.Duration("admit-budget", 0,
		"reject async fits with 429 when the estimated queue wait exceeds "+
			"this budget (0: only request deadlines gate admission)")
	appendBudget := flag.Duration("append-budget", 0,
		"shed stream appends with 429 while the smoothed append latency "+
			"exceeds this budget (0: only request deadlines gate)")
	breakerThreshold := flag.Int("breaker-threshold", admit.DefaultFailureThreshold,
		"consecutive fit failures that open an engine's circuit breaker")
	breakerOpenFor := flag.Duration("breaker-open-for", admit.DefaultOpenFor,
		"cool-off before an open engine breaker admits probe fits again")
	traceOn := flag.Bool("trace", true,
		"record request traces and serve them at /debug/traces")
	traceMax := flag.Int("trace-max", 0,
		"traces retained by the flight recorder (0: default 256)")
	traceSlow := flag.Duration("trace-slow", 0,
		"duration above which a trace is retained as slow (0: default 1s)")
	runtimeEvery := flag.Duration("runtime-metrics-every", 15*time.Second,
		"Go runtime gauge sampling interval (0 disables)")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dspot-serve:", err)
		os.Exit(2)
	}
	// A typo'd -default-engine should fail the boot, not 400 every request.
	if *defaultEngine != "" && *defaultEngine != modelengine.Auto {
		if _, err := modelengine.Lookup(*defaultEngine); err != nil {
			fmt.Fprintln(os.Stderr, "dspot-serve:", err)
			os.Exit(2)
		}
	}
	// Same for -stream-mode: an unknown mode would silently create batch
	// streams forever.
	if *streamMode != "batch" && *streamMode != "incremental" {
		fmt.Fprintf(os.Stderr, "dspot-serve: unknown -stream-mode %q (want batch or incremental)\n", *streamMode)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level, *logJSON)
	metrics := service.NewMetrics()

	// Tracing: spans from the HTTP middleware through the jobs engine and
	// the fit pipeline land in the flight recorder (GET /debug/traces), and
	// trace_id/span_id ride on ctx-aware log lines via the wrapped logger.
	var tracer *trace.Tracer
	if *traceOn {
		tracer = trace.NewTracer(trace.NewRecorder(trace.RecorderOptions{
			MaxTraces:     *traceMax,
			SlowThreshold: *traceSlow,
		}))
		logger = trace.WrapLogger(logger)
	}

	// Runtime telemetry: goroutine count, heap and GC gauges on the same
	// /metrics registry the request metrics use.
	runtimeCollector := obs.NewRuntimeCollector(metrics.Registry)
	stopRuntime := runtimeCollector.Start(*runtimeEvery)
	defer stopRuntime()

	// The listener comes up immediately; the registry (which may have many
	// models and stream snapshots to verify) loads in the background. Until
	// it finishes, a minimal handler serves /healthz (alive) and /readyz
	// (503 "registry loading") so orchestrators can tell "starting" from
	// "dead" — then the full handler is swapped in atomically.
	var current atomic.Value // http.Handler
	current.Store((&service.Server{
		Workers:       *workers,
		DefaultEngine: *defaultEngine,
		Metrics:       metrics,
		Logger:        logger,
		Tracer:        tracer,
		Ready:         func() error { return errors.New("registry loading") },
	}).Handler())
	var handler http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().(http.Handler).ServeHTTP(w, r)
	})
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}

	// engine is installed by the boot goroutine; shutdown must tolerate it
	// not existing yet (boot still running, or boot failed).
	var engineMu sync.Mutex
	var engine *jobs.Engine
	closeEngine := func() {
		engineMu.Lock()
		e := engine
		engineMu.Unlock()
		if e != nil {
			e.Close()
		}
	}

	fatal := make(chan error, 1)
	go func() {
		reg, err := registry.Open(registry.Options{
			DataDir:             *dataDir,
			MaxLoaded:           *maxModels,
			Logger:              logger,
			Metrics:             registry.NewMetricsOn(metrics.Registry),
			Tracer:              tracer,
			StreamMode:          *streamMode,
			StreamRetention:     *streamRetention,
			MaxConcurrentRefits: *maxRefits,
		})
		if err != nil {
			fatal <- fmt.Errorf("opening registry (data_dir %q): %w", *dataDir, err)
			return
		}
		e := jobs.New(jobs.Options{
			Workers:      *fitWorkers,
			QueueDepth:   *queueDepth,
			Timeout:      *jobTimeout,
			AbandonGrace: *abandonGrace,
			AdmitBudget:  *admitBudget,
			Logger:       logger,
			Metrics:      jobs.NewMetricsOn(metrics.Registry),
			Tracer:       tracer,
		})
		engineMu.Lock()
		engine = e
		engineMu.Unlock()
		current.Store((&service.Server{
			Workers:       *workers,
			DefaultEngine: *defaultEngine,
			Metrics:       metrics,
			Logger:        logger,
			Registry:      reg,
			Jobs:          e,
			Tracer:        tracer,
			Breakers: service.NewBreakerSet(admit.BreakerOptions{
				FailureThreshold: *breakerThreshold,
				OpenFor:          *breakerOpenFor,
			}, metrics),
			AppendBudget: *appendBudget,
		}).Handler())
		logger.Info("registry ready", "data_dir", *dataDir, "models", reg.Len())
	}()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		// Fits on large tensors take a while; no blanket write timeout.
	}

	ctx, stop := signal.NotifyContext(context.Background(),
		syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("dspot-serve listening",
		"addr", *addr, "workers", *workers, "pprof", *pprofOn,
		"trace", *traceOn, "data_dir", *dataDir,
		"fit_workers", *fitWorkers, "queue_depth", *queueDepth,
		"engines", modelengine.Names(), "default_engine", *defaultEngine)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "err", err)
			os.Exit(1)
		}
	case err := <-fatal:
		logger.Error("boot failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills hard
		logger.Info("shutting down, draining in-flight requests",
			"timeout", *shutdownTimeout)
		shCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			logger.Error("shutdown incomplete", "err", err)
			closeEngine()
			os.Exit(1)
		}
		// HTTP is drained; stop the job engine last so accepted jobs had
		// their chance to finish queueing, then cancel what remains.
		closeEngine()
		logger.Info("shutdown complete")
	}
}
