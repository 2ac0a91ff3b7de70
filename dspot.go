// Package dspot implements Δ-SPOT, a unifying analytical non-linear model
// for large collections of time-evolving online user activities (Do,
// Matsubara & Sakurai, 2016). Given a 3rd-order tensor of (keyword,
// location, time) counts, Δ-SPOT automatically:
//
//   - fits non-linear SIV (Susceptible–Infective–Vigilant) dynamics per
//     keyword (P1: base trends),
//   - estimates per-location potential populations (P2: area specificity),
//   - detects population growth effects (P3), and
//   - discovers cyclic and one-shot external shock events with per-location
//     participation (P4),
//
// with model complexity chosen by the minimum description length principle —
// no parameters to tune — and forecasts long-range future dynamics by
// extrapolating the discovered cyclic events.
//
// # Quick start
//
//	x := dspot.NewTensor([]string{"harry potter"}, []string{"US", "JP"}, 576)
//	// ... fill x with weekly counts via x.Set(keyword, location, tick, v) ...
//	model, err := dspot.Fit(x, dspot.Options{})
//	if err != nil { ... }
//	events := model.ShocksFor(0)          // detected external shocks
//	future := model.ForecastGlobal(0, 52) // one more year, spikes included
//
// Synthetic datasets mirroring the paper's evaluation data (GoogleTrends,
// Twitter, MemeTracker) are available via the Synthetic* constructors, and
// the cmd/dspot-exp binary regenerates every figure of the paper.
package dspot

import (
	"context"
	"os"

	"dspot/internal/arima"
	"dspot/internal/core"
	"dspot/internal/datagen"
	"dspot/internal/dataset"
	"dspot/internal/tbats"
	"dspot/internal/tensor"
)

// Tensor is the 3rd-order activity tensor X ∈ N^{d×l×n}: x_ij(t) is the
// count of keyword i in location j at time-tick t.
type Tensor = tensor.Tensor

// Missing marks an unobserved tensor cell; fitting skips missing cells.
var Missing = tensor.Missing

// NewTensor returns a zero tensor with the given keyword and location axes
// and duration n.
func NewTensor(keywords, locations []string, n int) *Tensor {
	return tensor.New(keywords, locations, n)
}

// Model is a fitted Δ-SPOT parameter set F = {B_G, B_L, R_G, R_L, S}.
type Model = core.Model

// Shock is one external shock event s = {s^(D), s^(N), s^(L)} with
// periodicity (Period; 0 = one-shot), start, width, per-occurrence global
// strengths, and per-location participation.
type Shock = core.Shock

// KeywordParams are one keyword's global dynamics {N, β, δ, γ} plus the
// growth effect {η₀, t_η}.
type KeywordParams = core.KeywordParams

// PredictedEvent is a projected future shock occurrence.
type PredictedEvent = core.PredictedEvent

// Options tunes fitting. The zero value enables the full automatic model;
// the Disable* switches reproduce the paper's Fig. 4 ablation. Set Context
// (or use FitCtx) to cancel a long fit cooperatively.
type Options = core.FitOptions

// NonCyclic is the Shock.Period value of one-shot events.
const NonCyclic = core.NonCyclic

// NoGrowth is the KeywordParams.TEta value when no growth effect is active.
const NoGrowth = core.NoGrowth

// Fit runs the full two-layer Δ-SPOT algorithm: GlobalFit over the d global
// sequences x̄_i = Σ_j x_ij, then LocalFit over all d×l local sequences.
func Fit(x *Tensor, opts Options) (*Model, error) {
	return core.Fit(x, opts)
}

// FitCtx is Fit under a cancellation context — shorthand for setting
// Options.Context. Once ctx ends, every fitting layer (LM iterations,
// golden-section and grid searches, shock discovery, local cells) stops
// cooperatively and the call returns an error wrapping context.Canceled or
// context.DeadlineExceeded, within about one LM iteration of the cancel.
func FitCtx(ctx context.Context, x *Tensor, opts Options) (*Model, error) {
	return core.FitCtx(ctx, x, opts)
}

// Observability: set Options.Progress to receive FitEvents at stage
// boundaries, or use the *WithReport variants to get an aggregated
// FitReport (stage timings, LM iteration counts, shock candidates tried vs
// accepted) alongside the model. Hooks are zero-cost when nil.

// FitEvent is one fit-progress observation emitted at a stage boundary.
type FitEvent = core.FitEvent

// ProgressFunc receives fit-progress events; it must be safe for
// concurrent use.
type ProgressFunc = core.ProgressFunc

// FitReport aggregates a fit run's trace events.
type FitReport = core.FitReport

// FitTrace aggregates FitEvents into a FitReport; NewFitTrace().Hook() is
// the canonical Options.Progress value.
type FitTrace = core.FitTrace

// NewFitTrace returns an empty fit-trace collector.
func NewFitTrace() *FitTrace { return core.NewFitTrace() }

// FitWithReport is Fit with tracing enabled, returning the FitReport too.
func FitWithReport(x *Tensor, opts Options) (*Model, *FitReport, error) {
	return core.FitWithReport(x, opts)
}

// FitGlobalWithReport is FitGlobal with tracing enabled.
func FitGlobalWithReport(x *Tensor, opts Options) (*Model, *FitReport, error) {
	return core.FitGlobalWithReport(x, opts)
}

// FitGlobal runs only the global phase (l times cheaper; local matrices stay
// nil). Use Fit, or follow with FitLocal, when per-location analysis or the
// world reaction maps are needed.
func FitGlobal(x *Tensor, opts Options) (*Model, error) {
	return core.FitGlobal(x, opts)
}

// FitLocal runs the local phase against a model from FitGlobal, filling
// B_L, R_L and each shock's per-location participation in place.
func FitLocal(x *Tensor, m *Model, opts Options) error {
	return core.FitLocal(x, m, opts)
}

// FitSequence fits the single-sequence Δ-SPOT model (Model 1 in the paper)
// to one global series: handy when there is no location axis. The returned
// model has one keyword named "seq" and one location named "all".
func FitSequence(seq []float64, opts Options) (*Model, error) {
	res, err := core.FitGlobalSequence(seq, 0, opts)
	if err != nil {
		return nil, err
	}
	return &Model{
		Keywords:  []string{"seq"},
		Locations: []string{"all"},
		Ticks:     len(seq),
		Global:    []KeywordParams{res.Params},
		Shocks:    res.Shocks,
		Scale:     []float64{res.Scale},
	}, nil
}

// Synthetic datasets. Each mirrors one dataset from the paper's evaluation
// with scripted ground truth (see DESIGN.md §3 for the substitution
// rationale); all are deterministic per seed.

// SyntheticConfig sizes a synthetic dataset.
type SyntheticConfig = datagen.Config

// SyntheticTruth bundles a generated tensor with its generation scripts.
type SyntheticTruth = datagen.Truth

// SyntheticGoogleTrends generates the weekly 8-keyword × countries tensor
// (Jan 2004 – Jan 2015 at natural size).
func SyntheticGoogleTrends(cfg SyntheticConfig) *SyntheticTruth {
	return datagen.GoogleTrends(cfg)
}

// SyntheticGoogleTrendsKeyword generates a single keyword's world; keywords
// are listed by SyntheticKeywords.
func SyntheticGoogleTrendsKeyword(name string, cfg SyntheticConfig) (*SyntheticTruth, error) {
	return datagen.GoogleTrendsKeyword(name, cfg)
}

// SyntheticKeywords lists the scripted GoogleTrends keywords.
func SyntheticKeywords() []string { return datagen.GoogleTrendsKeywordNames() }

// SyntheticTwitter generates the daily hashtag tensor ("#apple",
// "#backtoschool", plus extraTags random bursty hashtags).
func SyntheticTwitter(extraTags int, cfg SyntheticConfig) *SyntheticTruth {
	return datagen.Twitter(extraTags, cfg)
}

// SyntheticMemeTracker generates the daily meme-phrase tensor.
func SyntheticMemeTracker(extraMemes int, cfg SyntheticConfig) *SyntheticTruth {
	return datagen.MemeTracker(extraMemes, cfg)
}

// I/O. Tensors travel as long-form CSV (keyword,location,tick,count);
// fitted models as JSON.

// LoadTensorCSV reads a tensor from a long-form CSV file.
func LoadTensorCSV(path string) (*Tensor, error) { return dataset.LoadCSV(path) }

// SaveTensorCSV writes a tensor to a long-form CSV file.
func SaveTensorCSV(path string, x *Tensor) error { return dataset.SaveCSV(path, x) }

// LoadTensorWideCSV reads a wide-format file (one row per tick, one column
// per location — the shape real trend exports come in) as a single-keyword
// tensor named keyword. Use dataset.MergeKeywordTensors via repeated loads
// to assemble a multi-keyword tensor.
func LoadTensorWideCSV(path, keyword string) (*Tensor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadWideCSV(f, keyword)
}

// LoadModel reads a fitted model from a JSON file.
func LoadModel(path string) (*Model, error) { return dataset.LoadModel(path) }

// SaveModel writes a fitted model to a JSON file.
func SaveModel(path string, m *Model) error { return dataset.SaveModel(path, m) }

// Streaming: online series grow one tick at a time; Stream keeps a model
// warm. A fitted stream folds each tick into the model by stepping a
// checkpointed simulation and amortises the warm-started batch refit
// behind a refit-debt counter; the RefitMode is the debt policy. RefitBatch
// refits on a tick cadence, RefitIncremental also re-scans the tail for new
// shocks in O(TailWindow) time and refits when the surcharged debt crosses
// its limit (see Stream.Append).

// Stream maintains a Δ-SPOT model over an append-only series.
type Stream = core.Stream

// RefitMode selects a stream's debt policy.
type RefitMode = core.RefitMode

// Stream debt policies.
const (
	RefitBatch       = core.RefitBatch
	RefitIncremental = core.RefitIncremental
)

// IncrementalConfig tunes incremental stream maintenance: the sliding tail
// window re-examined per append and the refit-debt limit that schedules the
// consolidating full refit. Zero fields select defaults.
type IncrementalConfig = core.IncrementalConfig

// NewStream returns a stream under the RefitBatch debt policy: it refits
// after every refitEvery appended ticks (<= 0 selects the default of 26)
// and forecasts from its checkpoint in between.
func NewStream(opts Options, refitEvery int) *Stream {
	return core.NewStream(opts, refitEvery)
}

// NewIncrementalStream returns a stream under the RefitIncremental debt
// policy: O(tail) work per appended tick, with full refits amortised behind
// the surcharged debt counter (refitEvery becomes the debt unit and
// retry-backoff spacing).
func NewIncrementalStream(opts Options, refitEvery int, cfg IncrementalConfig) *Stream {
	return core.NewIncrementalStream(opts, refitEvery, cfg)
}

// Band holds per-tick forecast quantiles from Model.ForecastBands — a
// Monte-Carlo prediction interval via residual bootstrap (an extension
// beyond the paper; see DESIGN.md).
type Band = core.Band

// Anomaly is one flagged tick from Model.AnomaliesGlobal/AnomaliesLocal:
// a residual exceeding the threshold in units of the fitted noise σ.
type Anomaly = core.Anomaly

// Baseline forecasters, exposed for side-by-side comparisons (the paper's
// Fig. 11 uses both against Δ-SPOT).

// ForecastAR fits an AR(order) model to seq and forecasts h steps.
func ForecastAR(seq []float64, order, h int) ([]float64, error) {
	m, err := arima.FitAR(seq, order)
	if err != nil {
		return nil, err
	}
	return m.Forecast(h), nil
}

// ForecastTBATS fits a TBATS-style model to seq and forecasts h steps.
func ForecastTBATS(seq []float64, h int) ([]float64, error) {
	m, err := tbats.Fit(seq)
	if err != nil {
		return nil, err
	}
	return m.Forecast(h), nil
}
