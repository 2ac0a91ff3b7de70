// Package engine is the pluggable model-engine subsystem: one serving-facing
// interface over every dynamical-model family the repo can fit, with a
// process-wide named registry. Δ-SPOT (internal/core), the epidemic and
// FUNNEL baselines, and the HIP Hawkes-intensity engine all register here;
// the HTTP service, the model registry and the CLIs select engines by name
// and never import a family package directly.
//
// The comparison currency is MDL: every engine's CodingCost prices the same
// global sequences under the same universal header (description cost of its
// parameters plus the Gaussian coding cost of the residuals), so costs are
// comparable across families and `auto` (AutoFit) can pick the family that
// explains a tensor most cheaply — the paper's model-selection argument,
// exposed as an API.
//
// Adding a new engine: a family whose model is one parameter set per
// keyword registers a keywordEngine (keyword.go) that states only its
// numerics; anything else implements ModelEngine (context-aware Fit with
// numcheck input validation, deterministic for fixed inputs) and Model for
// its fitted artefact, as dspot.go does. Either way, call Register in an
// init() and run the conformance harness (conformance_test.go) against it.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"dspot/internal/core"
	"dspot/internal/mdl"
	"dspot/internal/tensor"
)

// Default is the engine used when no name is given: the Δ-SPOT core.
const Default = "dspot"

// Auto is the reserved pseudo-engine name: fit every registered engine and
// keep the one with the lowest MDL coding cost (see AutoFit).
const Auto = "auto"

// Model is one fitted artefact, whatever family produced it. Values are
// shared after Fit (the registry hands the same Model to every request), so
// implementations must be read-only after construction.
type Model interface {
	// EngineName names the engine that produced (and can decode) this model.
	EngineName() string
	Keywords() []string
	Locations() []string
	Ticks() int
	// Validate checks internal consistency; the registry refuses to persist
	// models that fail it.
	Validate() error
}

// FitOptions is the engine-independent fit configuration. Engines ignore
// knobs that do not apply to their family (e.g. Promotion outside HIP,
// DisableCycles outside Δ-SPOT).
type FitOptions struct {
	// Context cancels the fit cooperatively; every engine stops within about
	// one LM iteration and returns an error wrapping context.Canceled or
	// context.DeadlineExceeded.
	Context context.Context
	// Workers bounds fitting concurrency inside one engine (0 = default).
	Workers int
	// GlobalOnly skips per-location structure where the family has any
	// (Δ-SPOT local matrices, FUNNEL location scales).
	GlobalOnly bool
	// DisableGrowth / DisableShocks / DisableCycles gate Δ-SPOT components.
	DisableGrowth bool
	DisableShocks bool
	DisableCycles bool
	// MaxShocks bounds shock discovery for the shock-capable engines
	// (0 = engine default).
	MaxShocks int
	// Prevalidated promises the tensor already passed Validate, so engines
	// skip the O(d·l·n) numcheck scan.
	Prevalidated bool
	// Promotion is the exogenous promotion series s(t) for HIP, one value
	// per tick (nil = constant 1). Exogenous input, never a fitted quantity.
	Promotion []float64
	// Progress receives fit-stage events from engines that emit them
	// (Δ-SPOT); zero-cost when nil.
	Progress ProgressFunc
}

// Fit-observability types are shared with the Δ-SPOT core: the service layer
// consumes them without importing internal/core.
type (
	// FitEvent is one fit-progress observation at a stage boundary.
	FitEvent = core.FitEvent
	// ProgressFunc receives fit-progress events; safe for concurrent use.
	ProgressFunc = core.ProgressFunc
	// FitTrace aggregates FitEvents into a FitReport.
	FitTrace = core.FitTrace
	// FitReport aggregates one fit run's trace events.
	FitReport = core.FitReport
	// PredictedEvent is one forecast external event (cyclic shocks only).
	PredictedEvent = core.PredictedEvent
	// Anomaly is one flagged tick from anomaly scoring.
	Anomaly = core.Anomaly
)

// Re-exported fit stages (see core.Stage) for Progress consumers.
const (
	StageBase      = core.StageBase
	StageGrowth    = core.StageGrowth
	StageShock     = core.StageShock
	StageKeyword   = core.StageKeyword
	StageGlobal    = core.StageGlobal
	StageLocal     = core.StageLocal
	StageLocalCell = core.StageLocalCell
	StagePanic     = core.StagePanic
)

// NewFitTrace returns an empty fit-trace collector.
func NewFitTrace() *FitTrace { return core.NewFitTrace() }

// ModelEngine is one registered model family. Implementations must be
// stateless (safe for concurrent use) and deterministic: the same tensor and
// options produce the same model, byte-for-byte under EncodeModel.
type ModelEngine interface {
	// Name is the registry key ("dspot", "hip", ...).
	Name() string
	// Fit fits the family to a tensor. Unless opts.Prevalidated, non-finite
	// or negative input is rejected with a typed numcheck error before any
	// fitting work.
	Fit(x *tensor.Tensor, opts FitOptions) (Model, error)
	// Simulate returns the fitted global curve for one keyword ("" = first)
	// over n ticks.
	Simulate(m Model, keyword string, n int) ([]float64, error)
	// Forecast extends one keyword's global curve horizon ticks past the
	// training window.
	Forecast(m Model, keyword string, horizon int) ([]float64, error)
	// CodingCost is the global-level MDL total of the model against the
	// tensor it was fitted to: universal header + parameter description +
	// Gaussian coding of the global residuals. Comparable across engines.
	CodingCost(m Model, x *tensor.Tensor) (float64, error)
	// EncodeModel / DecodeModel round-trip the model as JSON. The encoding
	// is the persistence format, so it must stay stable across versions.
	EncodeModel(w io.Writer, m Model) error
	DecodeModel(r io.Reader) (Model, error)
}

// Optional capabilities, asserted against Model values by the service layer.
type (
	// EventLister exposes detected external events (shock-capable engines).
	EventLister interface {
		Events() []Event
	}
	// EventForecaster predicts future event occurrences within a horizon.
	EventForecaster interface {
		PredictedEvents(keyword string, horizon int) ([]PredictedEvent, error)
	}
	// AnomalyScorer scores an observed series against the fitted model.
	AnomalyScorer interface {
		Anomalies(keyword string, series []float64, threshold float64) ([]Anomaly, error)
	}
)

// Event is one detected external event in engine-neutral form.
type Event struct {
	Keyword  string    `json:"keyword"`
	Period   int       `json:"period"`
	Start    int       `json:"start"`
	Width    int       `json:"width"`
	Strength []float64 `json:"strength"`
	Cyclic   bool      `json:"cyclic"`
}

var (
	regMu   sync.RWMutex
	engines = make(map[string]ModelEngine)
)

// Register installs an engine under its Name. It is meant for init()-time
// self-registration and panics on a duplicate, empty or reserved name —
// those are programmer errors, not runtime conditions.
func Register(e ModelEngine) {
	name := e.Name()
	if name == "" || name == Auto {
		panic(fmt.Sprintf("engine: invalid engine name %q", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := engines[name]; dup {
		panic(fmt.Sprintf("engine: duplicate registration of %q", name))
	}
	engines[name] = e
}

// Lookup resolves an engine by name ("" selects Default). Auto is not an
// engine — use AutoFit — so Lookup rejects it alongside unknown names.
func Lookup(name string) (ModelEngine, error) {
	if name == "" {
		name = Default
	}
	regMu.RLock()
	e, ok := engines[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q (registered: %v)", name, Names())
	}
	return e, nil
}

// Names lists the registered engines, sorted.
func Names() []string {
	regMu.RLock()
	out := make([]string, 0, len(engines))
	for name := range engines {
		out = append(out, name)
	}
	regMu.RUnlock()
	sort.Strings(out)
	return out
}

// Decode decodes a model with the named engine ("" = Default).
func Decode(name string, r io.Reader) (Model, error) {
	e, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return e.DecodeModel(r)
}

// validateInput enforces the numcheck boundary once per fit: after a
// successful scan opts is marked Prevalidated so inner layers skip it.
func validateInput(x *tensor.Tensor, opts *FitOptions) error {
	if x == nil || x.D() == 0 || x.N() == 0 {
		return errors.New("engine: empty tensor")
	}
	if opts.Prevalidated {
		return nil
	}
	if err := x.Validate(); err != nil {
		return err
	}
	opts.Prevalidated = true
	return nil
}

// ctxOf returns the fit context, never nil.
func ctxOf(opts FitOptions) context.Context {
	if opts.Context != nil {
		return opts.Context
	}
	return context.Background()
}

// keywordIndex resolves a keyword name against a model ("" = first).
func keywordIndex(m Model, name string) (int, error) {
	kws := m.Keywords()
	if name == "" {
		if len(kws) == 0 {
			return 0, errors.New("engine: model has no keywords")
		}
		return 0, nil
	}
	for i, kw := range kws {
		if kw == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("engine: unknown keyword %q", name)
}

// gaussianResidualCost is the Gaussian coding cost of obs−est with missing
// observations skipped — the shared Cost_C term of every engine's
// CodingCost.
func gaussianResidualCost(obs, est []float64) float64 {
	n := len(obs)
	if len(est) < n {
		n = len(est)
	}
	r := make([]float64, n)
	for t := 0; t < n; t++ {
		if tensor.IsMissing(obs[t]) {
			r[t] = tensor.Missing
			continue
		}
		r[t] = obs[t] - est[t]
	}
	return mdl.GaussianCost(r)
}

// header is the shared universal MDL header log*(d)+log*(n) every engine's
// CodingCost starts from.
func header(d, n int) float64 {
	return mdl.LogStar(d) + mdl.LogStar(n)
}
