package experiments

// Robustness studies beyond the paper's evaluation, possible here because
// the synthetic datasets expose their ground truth: how gracefully does
// Δ-SPOT degrade as observations go missing, and as observation noise
// grows? Recovery is scored against the scripts — period, phase, and growth
// onset — not just by residual RMSE.

import (
	"fmt"
	"math/rand"
	"strings"

	"dspot/internal/core"
	"dspot/internal/datagen"
	"dspot/internal/stats"
	"dspot/internal/tensor"
)

// RecoveryScore grades a fitted model against the generator scripts for a
// single keyword.
type RecoveryScore struct {
	PeriodFound bool    // some shock with the scripted periodicity (±10%)
	PhaseError  int     // ticks between scripted and fitted anchor phases (-1 when not found)
	GrowthFound bool    // growth effect detected when scripted (vacuously true otherwise)
	GrowthError int     // onset error in ticks (-1 when not applicable/found)
	NRMSE       float64 // fit RMSE / peak
}

// scoreRecovery compares a fitted single-keyword model to its spec.
func scoreRecovery(spec datagen.KeywordSpec, params core.KeywordParams,
	shocks []core.Shock, obs []float64, n int) RecoveryScore {
	m := &core.Model{Keywords: []string{spec.Name}, Ticks: n,
		Global: []core.KeywordParams{params}, Shocks: shocks}
	score := RecoveryScore{PhaseError: -1, GrowthError: -1}
	peak := stats.Max(obs)
	if peak > 0 {
		score.NRMSE = stats.RMSE(obs, m.SimulateGlobal(0, n)) / peak
	}

	// Periodicity/phase: check the dominant scripted cyclic event.
	var want *datagen.EventSpec
	for i := range spec.Events {
		e := &spec.Events[i]
		if e.Period > 0 && (want == nil || e.Strength > want.Strength) {
			want = e
		}
	}
	if want == nil {
		score.PeriodFound = true // nothing to find
	} else {
		tol := want.Period / 10
		if tol < 2 {
			tol = 2
		}
		for _, s := range shocks {
			if s.Period == 0 {
				continue
			}
			if abs(s.Period-want.Period) <= tol {
				score.PeriodFound = true
				phase := abs((s.Start % want.Period) - (want.Start % want.Period))
				if wrap := want.Period - phase; wrap < phase {
					phase = wrap
				}
				if score.PhaseError == -1 || phase < score.PhaseError {
					score.PhaseError = phase
				}
			}
		}
	}

	// Growth.
	if spec.Growth == nil {
		score.GrowthFound = true
	} else if params.HasGrowth() {
		score.GrowthFound = true
		score.GrowthError = abs(params.TEta - spec.Growth.Start)
	}
	return score
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// RobustnessPoint is one sweep measurement.
type RobustnessPoint struct {
	Level float64 // missing fraction or noise level
	Score RecoveryScore
}

// RobustnessResult holds the two sweeps for one keyword.
type RobustnessResult struct {
	Keyword string
	Missing []RobustnessPoint
	Noise   []RobustnessPoint
}

func (r RobustnessResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness — %s (ground-truth recovery under degradation)\n", r.Keyword)
	row := func(p RobustnessPoint) string {
		return fmt.Sprintf("period=%v phase±%d nrmse=%.3f",
			p.Score.PeriodFound, p.Score.PhaseError, p.Score.NRMSE)
	}
	fmt.Fprintln(&b, "  missing fraction:")
	for _, p := range r.Missing {
		fmt.Fprintf(&b, "    %4.0f%%  %s\n", p.Level*100, row(p))
	}
	fmt.Fprintln(&b, "  noise level:")
	for _, p := range r.Noise {
		fmt.Fprintf(&b, "    %4.0f%%  %s\n", p.Level*100, row(p))
	}
	return b.String()
}

// Robustness sweeps missing-data fractions and noise levels on the Grammy
// world and scores ground-truth recovery at each point.
func Robustness(cfg Config, missingLevels, noiseLevels []float64) (RobustnessResult, error) {
	if missingLevels == nil {
		missingLevels = []float64{0, 0.1, 0.2, 0.4}
	}
	if noiseLevels == nil {
		noiseLevels = []float64{0.01, 0.05, 0.1, 0.2}
	}
	res := RobustnessResult{Keyword: "grammy"}

	fitScored := func(truth *datagen.Truth, obs []float64) (RecoveryScore, error) {
		n := len(obs)
		opts := cfg.fit()
		opts.DisableGrowth = truth.Keywords[0].Growth == nil
		fit, err := core.FitGlobalSequence(obs, 0, opts)
		if err != nil {
			return RecoveryScore{}, err
		}
		return scoreRecovery(truth.Keywords[0], fit.Params, fit.Shocks, obs, n), nil
	}

	// Missing-data sweep at fixed low noise.
	for _, frac := range missingLevels {
		gen := cfg.gen()
		gen.Noise = 0.02
		truth, err := datagen.GoogleTrendsKeyword("grammy", gen)
		if err != nil {
			return res, err
		}
		obs := truth.Tensor.Global(0)
		if frac > 0 {
			rng := rand.New(rand.NewSource(cfg.Seed ^ 0xb0b))
			for t := range obs {
				if rng.Float64() < frac {
					obs[t] = tensor.Missing
				}
			}
		}
		score, err := fitScored(truth, obs)
		if err != nil {
			return res, err
		}
		res.Missing = append(res.Missing, RobustnessPoint{frac, score})
	}

	// Noise sweep with full observations.
	for _, noise := range noiseLevels {
		gen := cfg.gen()
		gen.Noise = noise
		truth, err := datagen.GoogleTrendsKeyword("grammy", gen)
		if err != nil {
			return res, err
		}
		obs := truth.Tensor.Global(0)
		score, err := fitScored(truth, obs)
		if err != nil {
			return res, err
		}
		res.Noise = append(res.Noise, RobustnessPoint{noise, score})
	}
	return res, nil
}
