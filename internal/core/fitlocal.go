package core

import (
	"context"
	"math"

	"dspot/internal/mdl"
	"dspot/internal/optimize"
	"dspot/internal/stats"
	"dspot/internal/tensor"
)

// localFitKeywordLocation fits the local-level parameters of keyword i in
// location j (Algorithm 3 body): the potential population b^(L)_ij, the
// growth rate r^(L)_ij, and the per-occurrence shock participation
// strengths s^(L)[·][j]. The global shape parameters stay fixed.
//
// strengths is the worker-local scratch: strengths[si][m] is the strength of
// occurrence m of shock si as seen in this location; it starts at the global
// values and is refined here. The accepted values are written into the
// model's shock Local matrices (column j) by the caller.
//
// The cell owns a small set of scratch buffers (ε profile, simulation
// output, residuals) that every objective closure below reuses — a cell
// runs thousands of golden-section evaluations, and each used to allocate
// an ε rebuild plus a simulation per step. The ε buffer is kept current
// with the strengths at all times; a perturbed strength re-derives only its
// occurrence's window (bit-identical to a full rebuild, see epsilonInto).
//
// ctx (which may be nil) cancels the cell cooperatively: each golden-section
// search observes it, so a cancel stops the cell within one objective
// evaluation. A cancelled cell returns whatever it had refined so far — the
// caller discards the whole fit on cancellation.
func (m *Model) localFitKeywordLocation(i, j int, seq []float64, shocks []Shock, ctx context.Context) (nij, rij float64, strengths [][]float64) {
	n := m.Ticks
	p := m.Global[i]

	// Worker-local strengths initialised from the global fit; local holds
	// the shocks with these rows, which ε(t) is built from.
	strengths = make([][]float64, len(shocks))
	local := make([]Shock, len(shocks))
	for si := range shocks {
		strengths[si] = append([]float64(nil), shocks[si].Strength...)
		local[si] = shocks[si]
		local[si].Strength = strengths[si]
	}

	epsBuf := epsilonInto(make([]float64, n), 0, local, false, nil)
	var simBuf, residBuf []float64

	// Initial population share: proportion of the keyword's global volume
	// observed in this location.
	localVolume := tensor.SumSeq(seq)
	simBuf = SimulateInto(simBuf, &p, n, epsBuf, -1)
	simVolume := tensor.SumSeq(simBuf)
	if simVolume > 0 {
		nij = p.N * localVolume / (simVolume)
	} else {
		nij = p.N / 100
	}
	if nij <= 0 {
		nij = 1e-9
	}
	rij = p.Eta0

	localSim := func() []float64 {
		q := p
		q.N = nij
		simBuf = SimulateInto(simBuf, &q, n, epsBuf, rij)
		return simBuf
	}

	maxN := 4 * nij
	if upper := 2 * stats.Max(seq); upper > maxN {
		maxN = upper
	}
	if maxN <= 0 {
		maxN = 1
	}

	cancelled := func() bool { return ctx != nil && ctx.Err() != nil }

	// Residual noise for the MDL gate in stage (c): the full-length
	// residual vector only changes when nij, rij, or an accepted strength
	// changes, so the estimate is cached and recomputed lazily instead of
	// once per occurrence.
	sigma2 := 0.0
	sigmaValid := false

	for round := 0; round < 2 && !cancelled(); round++ {
		// (a) Potential population b^(L)_ij. ε does not depend on nij, so
		// the profile stays valid across evaluations.
		nij, _, _ = optimize.Golden(ctx, func(v float64) float64 {
			save := nij
			nij = v
			sse := stats.SSE(seq, localSim())
			nij = save
			return sse
		}, 0, maxN, maxN*1e-5, 80)

		// (b) Growth rate r^(L)_ij (ε-independent as well).
		if p.HasGrowth() {
			rij, _, _ = optimize.Golden(ctx, func(v float64) float64 {
				save := rij
				rij = v
				sse := stats.SSE(seq, localSim())
				rij = save
				return sse
			}, 0, 10, 1e-4, 60)
		}
		sigmaValid = false // stages (a)/(b) moved the baseline fit

		// (c) Local shock participation, MDL-gated per occurrence.
		entryCost := mdl.IntCost(len(m.Keywords)) + mdl.IntCost(len(m.Locations)) +
			mdl.IntCost(n) + mdl.FloatCost
		for si := range shocks {
			if cancelled() {
				break
			}
			s := &shocks[si]
			for occ := range strengths[si] {
				if cancelled() {
					break
				}
				wstart, wend := occurrenceSpan(s, occ, n)
				if wstart >= n {
					continue
				}
				if tensor.ObservedCount(seq[wstart:wend]) == 0 {
					continue
				}
				save := strengths[si][occ]
				occEps := epsBuf[wstart:min(wstart+s.Width, n)]
				// window evaluates the trial strength and leaves it (and the
				// ε window) in place; callers restore via setStrength.
				window := func(str float64) []float64 {
					strengths[si][occ] = str
					epsilonInto(occEps, wstart, local, false, nil)
					sim := localSim()
					residBuf = residualsInto(residBuf, seq[wstart:wend], sim[wstart:wend])
					return residBuf
				}
				setStrength := func(str float64) {
					strengths[si][occ] = str
					epsilonInto(occEps, wstart, local, false, nil)
				}
				fit := func(str float64) float64 {
					return sseVsZero(window(str))
				}
				best, _, _ := optimize.Golden(ctx, fit, 0, maxShockStrength, 1e-3, 60)
				setStrength(save)
				// MDL gate: a non-zero entry must repay its description cost
				// relative to not participating at all.
				if !sigmaValid {
					residBuf = residualsInto(residBuf, seq, localSim())
					_, sigma2 = mdl.ResidualNoise(residBuf)
					sigmaValid = true
				}
				costZero := mdl.GaussianCostFixed(window(0), 0, sigma2)
				costBest := mdl.GaussianCostFixed(window(best), 0, sigma2) + entryCost
				if best < 1e-3 || costBest >= costZero {
					setStrength(0)
				} else {
					setStrength(best)
				}
				if strengths[si][occ] != save {
					sigmaValid = false
				}
			}
		}
	}
	return nij, rij, strengths
}

// sseVsZero is stats.SSE(r, zeros) without materialising the zero vector:
// the sum of squared non-NaN residuals.
func sseVsZero(r []float64) float64 {
	s := 0.0
	for _, v := range r {
		if math.IsNaN(v) {
			continue
		}
		s += v * v
	}
	return s
}
