package core

import (
	"math/rand"
	"sort"
)

// Forecast uncertainty: Δ-SPOT's point forecast extrapolates the fitted
// dynamics, but users deciding on capacity or alerting thresholds need a
// range. ForecastBands produces Monte-Carlo prediction intervals by
// bootstrap-resampling the training residuals onto simulated trajectories
// whose future occurrence strengths are themselves jittered by the spread
// of the observed occurrence strengths. This is an extension beyond the
// paper (documented in DESIGN.md); the point forecast is unchanged.

// Band holds per-tick forecast quantiles.
type Band struct {
	Lower  []float64 // lower quantile trajectory
	Median []float64
	Upper  []float64 // upper quantile trajectory
}

// ForecastBands returns (lower, median, upper) quantile trajectories for an
// h-tick forecast of keyword i, from nSim bootstrap trajectories at the
// given coverage (e.g., 0.8 → 10%/90% quantiles). obs supplies the training
// observations for residual resampling; seed makes the bands reproducible.
func (m *Model) ForecastBands(i, h int, obs []float64, nSim int, coverage float64, seed int64) Band {
	if h <= 0 || nSim <= 0 {
		return Band{}
	}
	if coverage <= 0 || coverage >= 1 {
		coverage = 0.8
	}
	rng := rand.New(rand.NewSource(seed))

	// Training residuals for bootstrap noise.
	fit := m.SimulateGlobal(i, m.Ticks)
	var residPool []float64
	n := m.Ticks
	if len(obs) < n {
		n = len(obs)
	}
	for t := 0; t < n; t++ {
		if obs[t] != obs[t] || fit[t] != fit[t] { // NaN guards
			continue
		}
		residPool = append(residPool, obs[t]-fit[t])
	}
	if len(residPool) == 0 {
		residPool = []float64{0}
	}

	shocks := m.ShocksFor(i)
	total := m.Ticks + h
	draws := make([]float64, len(shocks))
	eps := make([]float64, total)
	trajectories := make([][]float64, nSim)
	for sim := 0; sim < nSim; sim++ {
		// Jitter future strengths: each shock's projected occurrences take
		// one strength resampled from its observed non-zero strengths.
		for k := range shocks {
			draws[k] = resampleStrength(shocks[k].Strength, rng)
		}
		traj := Simulate(&m.Global[i], total, epsilonInto(eps, 0, shocks, true, draws), -1)[m.Ticks:]
		for t := range traj {
			traj[t] += residPool[rng.Intn(len(residPool))]
			if traj[t] < 0 {
				traj[t] = 0
			}
		}
		trajectories[sim] = traj
	}

	loQ := (1 - coverage) / 2
	hiQ := 1 - loQ
	band := Band{
		Lower:  make([]float64, h),
		Median: make([]float64, h),
		Upper:  make([]float64, h),
	}
	col := make([]float64, nSim)
	for t := 0; t < h; t++ {
		for sim := range trajectories {
			col[sim] = trajectories[sim][t]
		}
		sort.Float64s(col)
		band.Lower[t] = quantileSorted(col, loQ)
		band.Median[t] = quantileSorted(col, 0.5)
		band.Upper[t] = quantileSorted(col, hiQ)
	}
	return band
}

// resampleStrength draws one of the observed non-zero strengths. One draw
// is enough: all future occurrences of a trajectory share it, which models
// "how strong will next year's event be" rather than independent per-year
// noise. A row the point forecast does not project — an ended event, or one
// with no positive strength (futureStrength 0) — is not projected here
// either: it returns 0 without drawing.
func resampleStrength(observed []float64, rng *rand.Rand) float64 {
	if futureStrength(observed) == 0 {
		return 0
	}
	var pool []float64
	for _, v := range observed {
		if v > 0 {
			pool = append(pool, v)
		}
	}
	return pool[rng.Intn(len(pool))]
}

// quantileSorted interpolates the q-quantile of an ascending slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
