// Package epidemic implements the classical compartmental epidemic models
// that the Δ-SPOT paper compares against (Fig. 9): SI, SIR, SIRS, and SKIPS
// (a seasonally-forced SIRS after Stone, Olinky & Huppert 2007, the paper's
// reference [19]). The models are discrete-time difference systems simulated
// on normalised populations (s+i+r = 1) and scaled by a potential population
// N, matching the numerical form used by the Δ-SPOT core.
package epidemic

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"dspot/internal/lm"
	"dspot/internal/stats"
	"dspot/internal/tensor"
)

// Kind selects a member of the model family.
type Kind int

const (
	// SI has no recovery: susceptible → infective only.
	SI Kind = iota
	// SIR adds recovery without loss of immunity.
	SIR
	// SIRS adds immunity loss (recovered → susceptible).
	SIRS
	// SKIPS is SIRS with sinusoidal seasonal forcing of the contact rate.
	SKIPS
)

// String returns the conventional model name.
func (k Kind) String() string {
	switch k {
	case SI:
		return "SI"
	case SIR:
		return "SIR"
	case SIRS:
		return "SIRS"
	case SKIPS:
		return "SKIPS"
	default:
		return "unknown"
	}
}

// Params holds the parameters of one fitted model.
type Params struct {
	Kind  Kind
	N     float64 // potential population (output scale)
	Beta  float64 // contact rate
	Delta float64 // recovery rate (0 for SI)
	Gamma float64 // immunity-loss rate (0 for SI/SIR)
	I0    float64 // initial infective fraction

	// Seasonal forcing (SKIPS only): beta(t) = Beta·(1 + Amp·cos(2πt/Period + Phase)).
	Period int
	Amp    float64
	Phase  float64
}

// beta returns the (possibly seasonally forced) contact rate at tick t.
func (p *Params) beta(t int) float64 {
	if p.Kind != SKIPS || p.Period <= 0 {
		return p.Beta
	}
	b := p.Beta * (1 + p.Amp*math.Cos(2*math.Pi*float64(t)/float64(p.Period)+p.Phase))
	if b < 0 {
		return 0
	}
	return b
}

// Simulate runs the model for n ticks and returns the infective counts
// N·i(t). Fractions are clamped to [0,1] each step so that any parameter
// vector yields finite, physically meaningful output (important because the
// fitter explores the parameter space freely).
func (p *Params) Simulate(n int) []float64 {
	out := make([]float64, n)
	i := clamp01(p.I0)
	s := 1 - i
	r := 0.0
	for t := 0; t < n; t++ {
		out[t] = p.N * i
		infect := p.beta(t) * s * i
		var recover, relapse float64
		if p.Kind != SI {
			recover = p.Delta * i
		}
		if p.Kind == SIRS || p.Kind == SKIPS {
			relapse = p.Gamma * r
		}
		s = clamp01(s - infect + relapse)
		i = clamp01(i + infect - recover)
		r = clamp01(r + recover - relapse)
		// Renormalise drift introduced by clamping.
		tot := s + i + r
		if tot > 0 {
			s, i, r = s/tot, i/tot, r/tot
		}
	}
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Fit fits a model of the given kind to seq by Levenberg–Marquardt on
// normalised data, running a small deterministic set of starting points
// through lm's multi-start schedule (for SKIPS, per candidate period) and
// returning the best by SSE, the first on a tie. Missing (NaN) observations
// are skipped. Once ctx ends, the LM iterations and remaining starting
// points stop cooperatively and the error wraps context.Canceled or
// context.DeadlineExceeded.
func Fit(ctx context.Context, kind Kind, seq []float64) (Params, error) {
	if tensor.ObservedCount(seq) < 4 {
		return Params{}, errors.New("epidemic: sequence too short to fit")
	}
	norm, scale := tensor.Normalize(seq)
	n := len(norm)

	var ms lm.MultiStart
	best := Params{Kind: kind}
	bestSSE := math.Inf(1)

	fitOne := func(period int) {
		// Parameter layout depends on kind; all in normalised space.
		var p0, lo, hi []float64
		switch kind {
		case SI:
			p0 = []float64{1, 0.5, 0.01} // N, beta, i0
			lo = []float64{1e-6, 1e-6, 1e-9}
			hi = []float64{10, 5, 1}
		case SIR:
			p0 = []float64{1, 0.5, 0.3, 0.01} // N, beta, delta, i0
			lo = []float64{1e-6, 1e-6, 1e-6, 1e-9}
			hi = []float64{10, 5, 2, 1}
		case SIRS:
			p0 = []float64{1, 0.5, 0.4, 0.3, 0.01} // N, beta, delta, gamma, i0
			lo = []float64{1e-6, 1e-6, 1e-6, 1e-6, 1e-9}
			hi = []float64{10, 5, 2, 2, 1}
		case SKIPS:
			p0 = []float64{1, 0.5, 0.4, 0.3, 0.01, 0.5, 0} // + amp, phase
			lo = []float64{1e-6, 1e-6, 1e-6, 1e-6, 1e-9, 0, -math.Pi}
			hi = []float64{10, 5, 2, 2, 1, 1, math.Pi}
		}
		build := func(v []float64) Params {
			p := Params{Kind: kind, N: v[0], Beta: v[1]}
			switch kind {
			case SI:
				p.I0 = v[2]
			case SIR:
				p.Delta, p.I0 = v[2], v[3]
			case SIRS:
				p.Delta, p.Gamma, p.I0 = v[2], v[3], v[4]
			case SKIPS:
				p.Delta, p.Gamma, p.I0 = v[2], v[3], v[4]
				p.Amp, p.Phase, p.Period = v[5], v[6], period
			}
			return p
		}
		resid := func(dst, v []float64) []float64 {
			cand := build(v)
			sim := cand.Simulate(n)
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
		// Deterministic multi-start over contact-rate scales.
		var starts [][]float64
		for _, betaStart := range []float64{0.2, 0.8, 2.0} {
			start := append([]float64(nil), p0...)
			start[1] = betaStart
			starts = append(starts, start)
		}
		v, sse := ms.Fit(resid, starts, lm.Schedule{Screen: 120}, lm.Options{Lower: lo, Upper: hi, Ctx: ctx})
		if sse < bestSSE {
			bestSSE, best = sse, build(v)
		}
	}

	if kind == SKIPS {
		// Candidate periods from the data's autocorrelation plus common
		// calendar periods at weekly/daily resolution.
		cands := stats.DominantPeriods(norm, 3, 4, 0.1)
		cands = append(cands, 52, 26, 104, 7, 30, 365)
		seen := map[int]bool{}
		for _, p := range cands {
			if p < 2 || p > n/2 || seen[p] {
				continue
			}
			seen[p] = true
			fitOne(p)
		}
		if len(seen) == 0 {
			fitOne(n / 2)
		}
	} else {
		fitOne(0)
	}

	if err := ctx.Err(); err != nil {
		return Params{}, fmt.Errorf("epidemic: fit cancelled: %w", err)
	}
	if math.IsInf(bestSSE, 1) {
		return Params{}, errors.New("epidemic: fit failed for all starting points")
	}
	best.N *= scale // undo normalisation
	return best, nil
}
