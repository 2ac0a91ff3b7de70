package engine

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dspot/internal/epidemic"
	"dspot/internal/mdl"
	"dspot/internal/numcheck"
)

// The epidemic engine holds one compartmental fit (best kind by MDL among
// SI/SIR/SIRS/SKIPS) per keyword, over the global sequences.
func init() {
	Register(&keywordEngine[epidemic.Params]{
		name: "epidemic",
		fit:  fitEpidemicKind,
		simulate: func(p epidemic.Params, n int, _ []float64) []float64 {
			return p.Simulate(n)
		},
		// Forecast continues the compartmental dynamics past the training
		// window.
		forecast: func(p epidemic.Params, ticks, horizon int, _ []float64) []float64 {
			return p.Simulate(ticks + horizon)[ticks:]
		},
		descCost: epidemicDescCost,
		check: func(i int, p epidemic.Params) error {
			if p.Kind < epidemic.SI || p.Kind > epidemic.SKIPS {
				return fmt.Errorf("epidemic model: keyword %d has unknown kind %d", i, p.Kind)
			}
			for _, v := range []float64{p.N, p.Beta, p.Delta, p.Gamma, p.I0, p.Amp, p.Phase} {
				if err := numcheck.Finite(fmt.Sprintf("epidemic params[%d]", i), v); err != nil {
					return err
				}
			}
			return nil
		},
	})
}

// fitEpidemicKind fits one sequence with every family member and keeps the
// kind with the lowest MDL total (description + Gaussian residual cost), so
// simple dynamics are not over-parameterised into SKIPS.
func fitEpidemicKind(ctx context.Context, seq []float64, _ FitOptions) (epidemic.Params, error) {
	n := len(seq)
	var best epidemic.Params
	bestCost := math.Inf(1)
	var firstErr error
	for _, kind := range []epidemic.Kind{epidemic.SI, epidemic.SIR, epidemic.SIRS, epidemic.SKIPS} {
		p, err := epidemic.FitCtx(ctx, kind, seq)
		if err != nil {
			if ctx.Err() != nil {
				return best, err
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c := epidemicDescCost(p, n) + gaussianResidualCost(seq, p.Simulate(n))
		if c < bestCost {
			bestCost, best = c, p
		}
	}
	if math.IsInf(bestCost, 1) {
		if firstErr == nil {
			firstErr = errors.New("no kind has a finite coding cost")
		}
		return best, firstErr
	}
	return best, nil
}

// epidemicKindDim is the fitted float count per kind (the N/β/δ/γ/i0 subset
// plus SKIPS' amp and phase) — the description length charged by MDL.
func epidemicKindDim(k epidemic.Kind) int {
	switch k {
	case epidemic.SI:
		return 3
	case epidemic.SIR:
		return 4
	case epidemic.SIRS:
		return 5
	default: // SKIPS
		return 7
	}
}

// epidemicDescCost prices one keyword's parameters: a kind selector over the
// four family members, the kind's floats, and the seasonal period integer
// for SKIPS.
func epidemicDescCost(p epidemic.Params, n int) float64 {
	c := mdl.IntCost(4) + mdl.FloatsCost(epidemicKindDim(p.Kind))
	if p.Kind == epidemic.SKIPS {
		c += mdl.IntCost(n)
	}
	return c
}
