package core

import "math"

// Forecasting: Δ-SPOT extrapolates by running the fitted dynamics past the
// training window with ε(t) extended by each cyclic shock's periodicity —
// so the model predicts the time-tick, the duration, and the relative
// strength of incoming external events (§6 of the paper). Non-cyclic shocks
// do not recur.

// ForecastGlobal simulates keyword i for h ticks beyond the training window
// and returns only the forecast horizon (length h).
func (m *Model) ForecastGlobal(i, h int) []float64 {
	if h <= 0 {
		return nil
	}
	full := m.ForecastGlobalFull(i, h)
	return full[m.Ticks:]
}

// ForecastGlobalFull returns the fitted curve over the training window
// followed by the h-step forecast (length Ticks+h), which is the convenient
// shape for plotting Fig. 11-style panels.
func (m *Model) ForecastGlobalFull(i, h int) []float64 {
	if h < 0 {
		h = 0
	}
	total := m.Ticks + h
	return Simulate(&m.Global[i], total, epsilonInto(make([]float64, total), 0, m.ShocksFor(i), true, nil), -1)
}

// ForecastLocal simulates keyword i in location j for h ticks beyond the
// training window using the local parameters, returning the horizon only.
func (m *Model) ForecastLocal(i, j, h int) []float64 {
	if h <= 0 {
		return nil
	}
	total := m.Ticks + h
	shocks, p, rate := m.keywordAt(i, j)
	return Simulate(&p, total, epsilonInto(make([]float64, total), 0, shocks, true, nil), rate)[m.Ticks:]
}

// PredictedEvents lists the future shock occurrences of keyword i within the
// next h ticks: (start tick, width, projected strength). This is the
// "predict the time-tick, the duration and the relative strength of
// incoming external events" capability showcased in Fig. 11(b).
type PredictedEvent struct {
	Start    int
	Width    int
	Strength float64
	Period   int
}

// PredictedEvents returns the projected occurrences, ordered by start tick.
func (m *Model) PredictedEvents(i, h int) []PredictedEvent {
	var out []PredictedEvent
	total := m.Ticks + h
	for _, s := range m.Shocks {
		if s.Keyword != i || s.Period <= 0 {
			continue
		}
		future := futureStrength(s.Strength)
		if future <= 0 {
			continue
		}
		for occ := len(s.Strength); ; occ++ {
			start := s.OccurrenceStart(occ)
			if start >= total {
				break
			}
			out = append(out, PredictedEvent{Start: start, Width: s.Width,
				Strength: future, Period: s.Period})
		}
	}
	sortPredicted(out)
	return out
}

func sortPredicted(events []PredictedEvent) {
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && less(events[j], events[j-1]); j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
}

func less(a, b PredictedEvent) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.Strength > b.Strength
}

// RMSEGlobal returns the fitting RMSE of keyword i against obs.
func (m *Model) RMSEGlobal(i int, obs []float64) float64 {
	est := m.SimulateGlobal(i, m.Ticks)
	return rmse(obs, est)
}

func rmse(obs, est []float64) float64 {
	n := len(obs)
	if len(est) < n {
		n = len(est)
	}
	sum, cnt := 0.0, 0
	for t := 0; t < n; t++ {
		if math.IsNaN(obs[t]) || math.IsNaN(est[t]) {
			continue
		}
		d := obs[t] - est[t]
		sum += d * d
		cnt++
	}
	if cnt == 0 {
		// No tick has both sides observed: there is no error to report, and
		// 0 would claim a perfect fit for an all-missing series. NaN makes
		// the degenerate comparison explicit; aggregating callers skip it.
		return math.NaN()
	}
	return math.Sqrt(sum / float64(cnt))
}
