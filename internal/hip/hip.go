// Package hip implements a discrete-time Hawkes Intensity Process (Rizoiu,
// Xie, Sanner, Cebrián, Yu & Van Hentenryck, WWW 2017): popularity ξ(t) is
// driven by an exogenous promotion series s(t) plus power-law self-excitation
// of its own history,
//
//	ξ(t) = μ·s(t) + C · Σ_{τ<t} ξ(τ)·(t−τ+c)^{−(1+θ)}.
//
// Where Δ-SPOT explains a series through epidemic state (S/I/V compartments)
// with multiplicative shocks, HIP explains it through memory: every past tick
// re-excites the present with a heavy power-law tail, and external promotion
// enters additively. The two families decompose exogenous vs endogenous
// influence in structurally different ways, which is exactly what makes HIP a
// useful sibling behind the model-comparison API — MDL coding cost can favour
// one mechanism over the other on real series.
//
// Fitting is Levenberg–Marquardt (internal/lm) on normalised data with
// generative residuals: the candidate intensity is simulated from t=0, never
// conditioned on the observations, so the fitted parameters must reproduce
// the whole trajectory. The starts run through lm's multi-start schedule.
// Missing ticks (NaN) are skipped by the residual, and Options.Context
// cancels cooperatively between LM iterations and starts.
package hip

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"dspot/internal/lm"
	"dspot/internal/numcheck"
	"dspot/internal/stats"
	"dspot/internal/tensor"
)

// ParamCount is the number of fitted floats per sequence (μ, C, θ, c) —
// exported so MDL description costs stay in sync with the model.
const ParamCount = 4

// maxIter is the LM budget of each of Fit's starts.
const maxIter = 150

// intensityCap bounds the simulated intensity so that supercritical
// parameter vectors (C beyond the branching limit, which LM explores freely)
// saturate instead of overflowing to +Inf and poisoning the residuals.
const intensityCap = 1e12

// Params is one fitted HIP model.
type Params struct {
	Mu     float64 `json:"mu"`     // exogenous sensitivity to promotion s(t)
	C      float64 `json:"excite"` // endogenous (self-excitation) strength
	Theta  float64 `json:"theta"`  // power-law decay exponent: kernel ∝ (τ+c)^{−(1+θ)}
	Cutoff float64 `json:"cutoff"` // kernel offset c, keeps the lag-1 response finite
}

// promoAt reads the promotion series with a constant-1 default: a nil or
// short series means "no recorded promotion", i.e. a unit baseline drive.
func promoAt(promo []float64, t int) float64 {
	if t < len(promo) {
		return promo[t]
	}
	return 1
}

// Simulate runs the intensity recurrence for n ticks under the given
// promotion series (nil = constant 1). The cost is O(n²) — the power-law
// kernel has no exponential-style recursive shortcut — which is fine at the
// series lengths the service fits (hundreds to a few thousand ticks).
func (p *Params) Simulate(n int, promo []float64) []float64 {
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	// kernel[k] = (k+c)^{−(1+θ)} for lag k ≥ 1, shared by every tick.
	kern := make([]float64, n)
	exp := -(1 + p.Theta)
	for k := 1; k < n; k++ {
		kern[k] = math.Pow(float64(k)+p.Cutoff, exp)
	}
	for t := 0; t < n; t++ {
		v := p.Mu * promoAt(promo, t)
		endo := 0.0
		for tau := 0; tau < t; tau++ {
			endo += out[tau] * kern[t-tau]
		}
		v += p.C * endo
		if v < 0 || math.IsNaN(v) {
			v = 0
		} else if v > intensityCap {
			v = intensityCap
		}
		out[t] = v
	}
	return out
}

// Forecast extends the fitted trajectory past the training window: the model
// is simulated for n+h ticks (the first n reproduce the fit) and the last h
// are returned. Future promotion defaults to the mean of the observed
// promotion series — the exogenous drive is an input, so absent a script for
// the future the stationary level is the honest assumption.
func (p *Params) Forecast(n, h int, promo []float64) []float64 {
	total := n + h
	ext := promo
	if len(promo) > 0 && len(promo) < total {
		level := stats.Mean(promo)
		ext = make([]float64, total)
		copy(ext, promo)
		for t := len(promo); t < total; t++ {
			ext[t] = level
		}
	}
	return p.Simulate(total, ext)[n:]
}

// Options tunes Fit.
type Options struct {
	// Context cancels the fit cooperatively between LM iterations and
	// multi-starts; the error then wraps context.Canceled / DeadlineExceeded.
	Context context.Context
	// Promotion is the exogenous drive s(t), one value per tick (nil =
	// constant 1). It must be finite and non-negative: it is input data, not
	// a fitted quantity.
	Promotion []float64
}

// Fit fits HIP to one sequence by LM on normalised data over a small
// deterministic grid of (C, θ) starting points, returning the best by SSE.
// Missing (NaN) observations are skipped; non-finite or negative values are
// rejected with a typed numcheck error before any fitting work.
func Fit(seq []float64, opts Options) (Params, error) {
	if err := numcheck.Sequence("hip sequence", seq); err != nil {
		return Params{}, err
	}
	if opts.Promotion != nil {
		if err := numcheck.StrictSequence("hip promotion", opts.Promotion); err != nil {
			return Params{}, err
		}
		if len(opts.Promotion) < len(seq) {
			return Params{}, fmt.Errorf("hip: promotion has %d ticks, sequence has %d",
				len(opts.Promotion), len(seq))
		}
	}
	if tensor.ObservedCount(seq) < 8 {
		return Params{}, errors.New("hip: sequence too short to fit")
	}
	ctx := opts.Context
	norm, scale := tensor.Normalize(seq)
	n := len(norm)
	promo := opts.Promotion

	build := func(v []float64) Params {
		return Params{Mu: v[0], C: v[1], Theta: v[2], Cutoff: v[3]}
	}
	resid := func(dst, v []float64) []float64 {
		p := build(v)
		sim := p.Simulate(n, promo)
		r := slices.Grow(dst[:0], n)[:n]
		for t := range r {
			if tensor.IsMissing(norm[t]) {
				r[t] = math.NaN()
				continue
			}
			r[t] = sim[t] - norm[t]
		}
		return r
	}

	// μ and C are the load-bearing scales; a seed that matches the early
	// observed level keeps LM out of the all-zero basin.
	promoLevel := 1.0
	if len(promo) > 0 {
		if m := stats.Mean(promo); m > 0 {
			promoLevel = m
		}
	}
	mu0 := math.Max(stats.Mean(norm)/promoLevel, 1e-3)

	lo := []float64{0, 0, 0.05, 1e-3}
	hi := []float64{10, 3, 3, 20}
	var starts [][]float64
	for _, c0 := range []float64{0.1, 0.5, 0.9} {
		for _, th0 := range []float64{0.3, 1.0} {
			starts = append(starts, []float64{mu0, c0, th0, 1})
		}
	}
	var ms lm.MultiStart
	v, _ := ms.Fit(resid, starts, lm.Schedule{Screen: maxIter}, lm.Options{Lower: lo, Upper: hi, Ctx: ctx})
	if ctx != nil && ctx.Err() != nil {
		return Params{}, fmt.Errorf("hip: fit cancelled: %w", ctx.Err())
	}
	if v == nil {
		return Params{}, errors.New("hip: fit failed for all starting points")
	}
	best := build(v)
	// ξ is linear in μ for fixed (C, θ, c), so undoing the normalisation is
	// a pure rescale of the exogenous sensitivity.
	best.Mu *= scale
	return best, nil
}
