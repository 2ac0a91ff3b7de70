package core

import (
	"math"
	"testing"

	"dspot/internal/stats"
)

// grammyModel builds a fitted-looking model with one annual shock, as in the
// paper's Fig. 11 scenario.
func grammyModel(nTrain int) *Model {
	occ := (nTrain - 1 - 6) / 52
	strengths := make([]float64, occ+1)
	for i := range strengths {
		strengths[i] = 9
	}
	return &Model{
		Keywords: []string{"grammy"}, Locations: []string{"WW"}, Ticks: nTrain,
		Global: []KeywordParams{{N: 100, Beta: 0.5, Delta: 0.45, Gamma: 0.5,
			I0: 0.02, TEta: NoGrowth}},
		Shocks: []Shock{{Keyword: 0, Period: 52, Start: 6, Width: 2, Strength: strengths}},
	}
}

func TestFutureStrengthIgnoresZeros(t *testing.T) {
	s := Shock{Strength: []float64{4, 0, 8}}
	if got := futureStrength(s.Strength); math.Abs(got-6) > 1e-12 {
		t.Fatalf("futureStrength = %g, want 6", got)
	}
	empty := Shock{Strength: []float64{0, 0}}
	if futureStrength(empty.Strength) != 0 {
		t.Fatal("all-zero strengths should project 0")
	}
}

func TestFutureStrengthEndedEvent(t *testing.T) {
	// Two trailing zeros: the event ended; it must not recur.
	ended := Shock{Strength: []float64{8, 9, 8, 0, 0}}
	if got := futureStrength(ended.Strength); got != 0 {
		t.Fatalf("ended event projects %g, want 0", got)
	}
	// A single trailing zero is inconclusive (window edge): still projects.
	edge := Shock{Strength: []float64{8, 9, 8, 0}}
	if got := futureStrength(edge.Strength); got <= 0 {
		t.Fatalf("edge-cut event projects %g, want positive", got)
	}
}

func TestForecastEndedFranchiseDoesNotRecur(t *testing.T) {
	m := &Model{
		Keywords: []string{"franchise"}, Locations: []string{"WW"}, Ticks: 400,
		Global: []KeywordParams{{N: 100, Beta: 0.5, Delta: 0.45, Gamma: 0.5,
			I0: 0.02, TEta: NoGrowth}},
		Shocks: []Shock{{Keyword: 0, Period: 52, Start: 6, Width: 2,
			Strength: []float64{9, 9, 9, 9, 9, 0, 0, 0}}},
	}
	fc := m.ForecastGlobal(0, 156)
	base := stats.Quantile(fc, 0.5)
	if stats.Max(fc) > base*1.4 {
		t.Fatalf("ended franchise recurred in forecast: max %g base %g",
			stats.Max(fc), base)
	}
	if events := m.PredictedEvents(0, 156); len(events) != 0 {
		t.Fatalf("ended franchise predicted events: %+v", events)
	}
}

func TestForecastGlobalPredictsFutureSpikes(t *testing.T) {
	m := grammyModel(400)
	h := 156 // three more years
	fc := m.ForecastGlobal(0, h)
	if len(fc) != h {
		t.Fatalf("forecast length %d, want %d", len(fc), h)
	}
	// Expected future occurrences at ticks 422, 474, 526 (start 6 + 52k,
	// first k with 6+52k >= 400 is k=8).
	base := stats.Quantile(fc, 0.5)
	for _, abs := range []int{422, 474, 526} {
		rel := abs - 400
		window := fc[rel : rel+6]
		if stats.Max(window) < base*1.5 {
			t.Fatalf("no predicted spike near tick %d: window %v base %g", abs, window, base)
		}
	}
}

func TestForecastGlobalFullIncludesTraining(t *testing.T) {
	m := grammyModel(400)
	full := m.ForecastGlobalFull(0, 52)
	if len(full) != 452 {
		t.Fatalf("full length %d, want 452", len(full))
	}
	fit := m.SimulateGlobal(0, 400)
	for i := range fit {
		if math.Abs(full[i]-fit[i]) > 1e-9 {
			t.Fatalf("training prefix differs at %d", i)
		}
	}
}

func TestForecastNonCyclicShockDoesNotRecur(t *testing.T) {
	m := &Model{
		Keywords: []string{"k"}, Locations: []string{"WW"}, Ticks: 200,
		Global: []KeywordParams{{N: 100, Beta: 0.5, Delta: 0.45, Gamma: 0.5,
			I0: 0.02, TEta: NoGrowth}},
		Shocks: []Shock{{Keyword: 0, Period: NonCyclic, Start: 100, Width: 2,
			Strength: []float64{10}}},
	}
	fc := m.ForecastGlobal(0, 200)
	base := stats.Quantile(fc, 0.5)
	if stats.Max(fc) > base*1.4 {
		t.Fatalf("non-cyclic shock recurred in forecast: max %g base %g", stats.Max(fc), base)
	}
}

func TestForecastZeroAndNegativeHorizon(t *testing.T) {
	m := grammyModel(100)
	if m.ForecastGlobal(0, 0) != nil || m.ForecastGlobal(0, -5) != nil {
		t.Fatal("non-positive horizon should return nil")
	}
}

func TestForecastLocalUsesLocalScale(t *testing.T) {
	m := grammyModel(200)
	m.Locations = []string{"US", "NP"}
	m.LocalN = [][]float64{{80, 2}}
	m.LocalR = [][]float64{{0, 0}}
	m.Shocks[0].Local = make([][]float64, len(m.Shocks[0].Strength))
	for occ := range m.Shocks[0].Local {
		m.Shocks[0].Local[occ] = []float64{9, 0}
	}
	us := m.ForecastLocal(0, 0, 104)
	np := m.ForecastLocal(0, 1, 104)
	if stats.Max(us) <= stats.Max(np) {
		t.Fatalf("US forecast should dominate NP: %g vs %g", stats.Max(us), stats.Max(np))
	}
	// US participates in the annual shock; NP does not.
	usBase, npBase := stats.Quantile(us, 0.5), stats.Quantile(np, 0.5)
	if stats.Max(us) < usBase*1.5 {
		t.Fatal("US forecast lost the cyclic spike")
	}
	if npBase > 0 && stats.Max(np) > npBase*1.5 {
		t.Fatal("NP forecast has a spike it should not participate in")
	}
}

func TestPredictedEvents(t *testing.T) {
	m := grammyModel(400)
	events := m.PredictedEvents(0, 156)
	if len(events) != 3 {
		t.Fatalf("predicted %d events, want 3", len(events))
	}
	want := []int{422, 474, 526}
	for i, e := range events {
		if e.Start != want[i] {
			t.Fatalf("event %d at %d, want %d", i, e.Start, want[i])
		}
		if e.Width != 2 || e.Period != 52 {
			t.Fatalf("event geometry %+v", e)
		}
		if math.Abs(e.Strength-9) > 1e-12 {
			t.Fatalf("event strength %g, want 9", e.Strength)
		}
	}
}

func TestPredictedEventsNoCyclicShocks(t *testing.T) {
	m := &Model{
		Keywords: []string{"k"}, Ticks: 100,
		Global: []KeywordParams{{N: 1}},
		Shocks: []Shock{{Keyword: 0, Period: NonCyclic, Start: 50, Width: 1,
			Strength: []float64{5}}},
	}
	if events := m.PredictedEvents(0, 100); len(events) != 0 {
		t.Fatalf("non-cyclic shock predicted events: %v", events)
	}
}

func TestForecastEndToEndGrammy(t *testing.T) {
	// Full pipeline: synthesize 8 years of annual spikes, train on 400
	// ticks, verify the next spikes are forecast (the paper's Fig. 11).
	truth := KeywordParams{N: 100, Beta: 0.5, Delta: 0.45, Gamma: 0.5, I0: 0.02, TEta: NoGrowth}
	nAll := 560
	occAll := (nAll - 1 - 6) / 52
	strengths := make([]float64, occAll+1)
	for i := range strengths {
		strengths[i] = 9
	}
	shock := Shock{Keyword: 0, Period: 52, Start: 6, Width: 2, Strength: strengths}
	obs := synthGlobal(truth, []Shock{shock}, nAll, 0.01, 11)

	nTrain := 400
	res, err := FitGlobalSequence(obs[:nTrain], 0, FitOptions{DisableGrowth: true})
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{Keywords: []string{"grammy"}, Locations: []string{"WW"},
		Ticks: nTrain, Global: []KeywordParams{res.Params}, Shocks: res.Shocks}
	fc := m.ForecastGlobal(0, nAll-nTrain)

	// The forecast must beat a flat-mean forecast by a wide margin.
	futureObs := obs[nTrain:]
	flat := make([]float64, len(futureObs))
	trainMean := stats.Mean(obs[:nTrain])
	for i := range flat {
		flat[i] = trainMean
	}
	fcRMSE := stats.RMSE(futureObs, fc)
	flatRMSE := stats.RMSE(futureObs, flat)
	if fcRMSE >= flatRMSE*0.8 {
		t.Fatalf("forecast RMSE %g not clearly better than flat %g", fcRMSE, flatRMSE)
	}
	// And it must place spikes: correlation with the truth should be strong.
	if r := stats.Pearson(futureObs, fc); r < 0.7 {
		t.Fatalf("forecast correlation %g too weak", r)
	}
}
