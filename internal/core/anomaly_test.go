package core

import (
	"math"
	"testing"

	"dspot/internal/tensor"
)

func anomalyModel(n int) (*Model, []float64) {
	p := KeywordParams{N: 100, Beta: 0.5, Delta: 0.45, Gamma: 0.5, I0: 0.02, TEta: NoGrowth}
	m := &Model{Keywords: []string{"k"}, Locations: []string{"WW"}, Ticks: n,
		Global: []KeywordParams{p}}
	obs := synthGlobal(p, nil, n, 0.01, 41)
	return m, obs
}

func TestAnomaliesGlobalFlagsInjectedSpike(t *testing.T) {
	m, obs := anomalyModel(300)
	obs[150] += 20 // corrupt one tick hard
	got := m.AnomaliesGlobal(0, obs, 3)
	if len(got) == 0 {
		t.Fatal("injected spike not flagged")
	}
	if got[0].Tick != 150 {
		t.Fatalf("top anomaly at %d, want 150 (%+v)", got[0].Tick, got[0])
	}
	if got[0].Score < 3 {
		t.Fatalf("spike score %g too low", got[0].Score)
	}
}

func TestAnomaliesCleanSeriesQuiet(t *testing.T) {
	m, obs := anomalyModel(300)
	got := m.AnomaliesGlobal(0, obs, 4)
	if len(got) > 2 {
		t.Fatalf("clean series flagged %d anomalies at 4σ", len(got))
	}
}

func TestAnomaliesNegativeDirection(t *testing.T) {
	m, obs := anomalyModel(300)
	obs[200] = 0 // censor a tick well below the model level
	got := m.AnomaliesGlobal(0, obs, 3)
	found := false
	for _, a := range got {
		if a.Tick == 200 && a.Score < 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("censored tick not flagged negatively: %+v", got)
	}
}

func TestAnomaliesSkipMissing(t *testing.T) {
	m, obs := anomalyModel(300)
	obs[100] = tensor.Missing
	for _, a := range m.AnomaliesGlobal(0, obs, 2) {
		if a.Tick == 100 {
			t.Fatal("missing tick flagged")
		}
	}
}

func TestAnomaliesDefaultThreshold(t *testing.T) {
	m, obs := anomalyModel(200)
	obs[50] += 50
	got := m.AnomaliesGlobal(0, obs, 0) // 0 → default 3σ
	if len(got) == 0 || got[0].Tick != 50 {
		t.Fatalf("default threshold missed the spike: %+v", got)
	}
}

func TestAnomaliesLocal(t *testing.T) {
	p := KeywordParams{N: 100, Beta: 0.5, Delta: 0.45, Gamma: 0.5, I0: 0.02, TEta: NoGrowth}
	m := &Model{Keywords: []string{"k"}, Locations: []string{"US", "JP"}, Ticks: 200,
		Global: []KeywordParams{p},
		LocalN: [][]float64{{60, 40}},
		LocalR: [][]float64{{0, 0}},
	}
	pl := p
	pl.N = 40
	obs := Simulate(&pl, 200, nil, -1)
	obs[120] += 15
	got := m.AnomaliesLocal(0, 1, obs, 3)
	if len(got) == 0 || got[0].Tick != 120 {
		t.Fatalf("local anomaly missed: %+v", got)
	}
}

func TestCompressionRatioAboveOneForStructuredData(t *testing.T) {
	n := 200
	p := KeywordParams{N: 100, Beta: 0.5, Delta: 0.45, Gamma: 0.5, I0: 0.02, TEta: NoGrowth}
	shock := Shock{Keyword: 0, Period: 52, Start: 10, Width: 2, Strength: []float64{9, 9, 9, 9}}
	x := tensor.New([]string{"k"}, []string{"WW"}, n)
	eps := epsilonOf([]Shock{shock}, n)
	sim := Simulate(&p, n, eps, -1)
	for t1, v := range sim {
		x.Set(0, 0, t1, v)
	}
	m := &Model{Keywords: x.Keywords, Locations: x.Locations, Ticks: n,
		Global: []KeywordParams{p}, Shocks: []Shock{shock}}
	ratio := m.CompressionRatio(x)
	if math.IsNaN(ratio) || ratio <= 1 {
		t.Fatalf("structured data should compress: ratio %g", ratio)
	}
}
