package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dspot/internal/stats"
	"dspot/internal/tensor"
)

// synthGlobal builds a ground-truth global sequence from the model family
// itself plus observation noise scaled to the clean signal's peak.
func synthGlobal(p KeywordParams, shocks []Shock, n int, noise float64, seed int64) []float64 {
	eps := epsilonFromShocks(shocks, n)
	out := Simulate(&p, n, eps, -1)
	peak := stats.Max(out)
	if peak <= 0 {
		peak = 1
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range out {
		out[i] += rng.NormFloat64() * noise * peak
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

var truthBase = KeywordParams{N: 100, Beta: 0.5, Delta: 0.45, Gamma: 0.5, I0: 0.02, TEta: NoGrowth}

func TestFitGlobalSequenceBaseOnly(t *testing.T) {
	obs := synthGlobal(truthBase, nil, 300, 0.005, 1)
	res, err := FitGlobalSequence(obs, 0, FitOptions{DisableGrowth: true, DisableShocks: true})
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{Keywords: []string{"k"}, Ticks: 300, Global: []KeywordParams{res.Params}}
	fit := m.SimulateGlobal(0, 300)
	if r := stats.RMSE(obs, fit); r > 0.05*stats.Max(obs) {
		t.Fatalf("base-only RMSE %g of peak %g (params %+v)", r, stats.Max(obs), res.Params)
	}
}

func TestFitGlobalSequenceRecoversAnnualShock(t *testing.T) {
	truth := truthBase
	shocks := []Shock{{Keyword: 0, Period: 52, Start: 20, Width: 2,
		Strength: []float64{8, 8, 8, 8, 8}}}
	n := 52*5 + 30
	obs := synthGlobal(truth, shocks, n, 0.005, 2)
	res, err := FitGlobalSequence(obs, 0, FitOptions{DisableGrowth: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shocks) == 0 {
		t.Fatal("no shocks detected")
	}
	// The dominant shock should be cyclic with period ≈ 52 and phase ≈ 20.
	s := res.Shocks[0]
	if s.Period < 45 || s.Period > 60 {
		t.Fatalf("detected period %d, want ≈52 (shock %+v)", s.Period, s)
	}
	phaseGot, phaseWant := s.Start%52, 20
	diff := (phaseGot - phaseWant + 52) % 52
	if diff > 4 && diff < 48 {
		t.Fatalf("detected phase %d, want ≈20", phaseGot)
	}
	m := &Model{Keywords: []string{"k"}, Ticks: n, Global: []KeywordParams{res.Params}, Shocks: res.Shocks}
	if r := stats.RMSE(obs, m.SimulateGlobal(0, n)); r > 0.08*stats.Max(obs) {
		t.Fatalf("annual-shock fit RMSE %g of peak %g", r, stats.Max(obs))
	}
}

func TestFitGlobalSequenceRecoversGrowth(t *testing.T) {
	truth := truthBase
	truth.TEta, truth.Eta0 = 200, 0.4
	obs := synthGlobal(truth, nil, 400, 0.005, 3)
	res, err := FitGlobalSequence(obs, 0, FitOptions{DisableShocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Params.HasGrowth() {
		t.Fatalf("growth not detected: %+v", res.Params)
	}
	if res.Params.TEta < 170 || res.Params.TEta > 230 {
		t.Fatalf("growth onset %d, want ≈200", res.Params.TEta)
	}
}

func TestFitGlobalSequenceNoFalseGrowth(t *testing.T) {
	obs := synthGlobal(truthBase, nil, 300, 0.01, 4)
	res, err := FitGlobalSequence(obs, 0, FitOptions{DisableShocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Params.HasGrowth() && res.Params.Eta0 > 0.15 {
		t.Fatalf("spurious growth detected: %+v", res.Params)
	}
}

// TestFitGlobalSequenceRecoversOnset is the onset-recovery property at the
// lengths the service fits (88–260 ticks): a growth effect scripted at a
// quarter, half or three quarters of the window, on shock-free data fitted
// with shock discovery on, is accepted with t_η within two ticks of the
// script.
func TestFitGlobalSequenceRecoversOnset(t *testing.T) {
	for _, n := range []int{88, 156, 260} {
		for _, q := range []int{1, 2, 3} {
			for _, seed := range []int64{1, 2} {
				onset := n * q / 4
				t.Run(fmt.Sprintf("n=%d/onset=%d/seed=%d", n, onset, seed), func(t *testing.T) {
					truth := truthBase
					truth.TEta, truth.Eta0 = onset, 0.4
					obs := synthGlobal(truth, nil, n, 0.005, seed)
					res, err := FitGlobalSequence(obs, 0, FitOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if !res.Params.HasGrowth() {
						t.Fatalf("growth not accepted: %+v", res.Params)
					}
					if d := res.Params.TEta - onset; d < -2 || d > 2 {
						t.Fatalf("onset %d, scripted %d", res.Params.TEta, onset)
					}
				})
			}
		}
	}
}

func TestFitGlobalSequenceNonCyclicSpike(t *testing.T) {
	truth := truthBase
	shocks := []Shock{{Keyword: 0, Period: NonCyclic, Start: 150, Width: 2, Strength: []float64{12}}}
	obs := synthGlobal(truth, shocks, 300, 0.005, 5)
	res, err := FitGlobalSequence(obs, 0, FitOptions{DisableGrowth: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shocks) == 0 {
		t.Fatal("spike not detected")
	}
	found := false
	for _, s := range res.Shocks {
		if s.OccurrenceAt(150) >= 0 || s.OccurrenceAt(151) >= 0 ||
			(s.Start >= 146 && s.Start <= 154) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no detected shock covers tick 150: %+v", res.Shocks)
	}
}

func TestFitGlobalSequenceFlatSeriesNoShocks(t *testing.T) {
	obs := make([]float64, 200)
	rng := rand.New(rand.NewSource(6))
	for i := range obs {
		obs[i] = 50 + rng.NormFloat64()
	}
	res, err := FitGlobalSequence(obs, 0, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shocks) > 1 {
		t.Fatalf("flat noise produced %d shocks", len(res.Shocks))
	}
}

func TestFitGlobalSequenceTooShort(t *testing.T) {
	if _, err := FitGlobalSequence([]float64{1, 2, 3}, 0, FitOptions{}); err == nil {
		t.Fatal("short sequence accepted")
	}
}

func TestFitGlobalSequenceWithMissing(t *testing.T) {
	truth := truthBase
	obs := synthGlobal(truth, nil, 300, 0.005, 7)
	for i := 30; i < 300; i += 17 {
		obs[i] = tensor.Missing
	}
	res, err := FitGlobalSequence(obs, 0, FitOptions{DisableGrowth: true, DisableShocks: true})
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{Keywords: []string{"k"}, Ticks: 300, Global: []KeywordParams{res.Params}}
	if r := stats.RMSE(obs, m.SimulateGlobal(0, 300)); r > 0.06*stats.Max(obs) {
		t.Fatalf("missing-data fit RMSE %g", r)
	}
}

func TestFitEndToEndSmallTensor(t *testing.T) {
	// 2 keywords × 3 locations with different local scales and a shock that
	// only location 0 participates in for keyword 0.
	n := 160
	kw := []string{"alpha", "beta"}
	loc := []string{"US", "JP", "BR"}
	x := tensor.New(kw, loc, n)
	rng := rand.New(rand.NewSource(8))

	shock := Shock{Keyword: 0, Period: NonCyclic, Start: 80, Width: 2, Strength: []float64{10}}
	weights := [][]float64{{60, 30, 10}, {20, 20, 20}}
	for i := range kw {
		for j := range loc {
			p := truthBase
			p.N = weights[i][j]
			var eps []float64
			if i == 0 && j == 0 {
				eps = epsilonFromShocks([]Shock{shock}, n)
			}
			sim := Simulate(&p, n, eps, -1)
			for t1 := 0; t1 < n; t1++ {
				v := sim[t1] + rng.NormFloat64()*0.3
				if v < 0 {
					v = 0
				}
				x.Set(i, j, t1, v)
			}
		}
	}

	model, err := Fit(x, FitOptions{DisableGrowth: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if model.LocalN == nil || model.LocalR == nil {
		t.Fatal("local matrices not fitted")
	}
	// Local populations must reflect the 6:3:1 weighting of keyword 0.
	if !(model.LocalN[0][0] > model.LocalN[0][1] && model.LocalN[0][1] > model.LocalN[0][2]) {
		t.Fatalf("LocalN ordering wrong: %v", model.LocalN[0])
	}
	// Local fits must be accurate.
	for i := range kw {
		for j := range loc {
			obs := x.Local(i, j)
			fit := model.SimulateLocal(i, j, n)
			if r := stats.RMSE(obs, fit); r > 0.15*stats.Max(obs)+0.5 {
				t.Fatalf("local fit (%d,%d) RMSE %g of peak %g", i, j, r, stats.Max(obs))
			}
		}
	}
	// The shock should be localised to location 0 when fitted locally.
	for _, s := range model.ShocksFor(0) {
		if s.Local == nil {
			t.Fatal("shock local matrix missing")
		}
		if s.OccurrenceAt(80) < 0 && s.OccurrenceAt(81) < 0 {
			continue
		}
		occ := s.OccurrenceAt(80)
		if occ < 0 {
			occ = s.OccurrenceAt(81)
		}
		if s.Local[occ][0] <= s.Local[occ][2] {
			t.Fatalf("shock participation not localised: %v", s.Local[occ])
		}
	}
}

func TestFitGlobalOnlySkipsLocal(t *testing.T) {
	n := 120
	x := tensor.New([]string{"a"}, []string{"X", "Y"}, n)
	for j := 0; j < 2; j++ {
		p := truthBase
		p.N = 50
		sim := Simulate(&p, n, nil, -1)
		for t1 := range sim {
			x.Set(0, j, t1, sim[t1])
		}
	}
	m, err := FitGlobal(x, FitOptions{DisableGrowth: true, DisableShocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.LocalN != nil {
		t.Fatal("FitGlobal should not fill local matrices")
	}
	if err := FitLocal(x, m, FitOptions{}); err != nil {
		t.Fatal(err)
	}
	if m.LocalN == nil {
		t.Fatal("FitLocal did not fill local matrices")
	}
}

func TestFitLocalDimensionMismatch(t *testing.T) {
	x := tensor.New([]string{"a"}, []string{"X"}, 50)
	m := &Model{Keywords: []string{"a"}, Locations: []string{"X"}, Ticks: 40,
		Global: make([]KeywordParams, 1)}
	if err := FitLocal(x, m, FitOptions{}); err == nil {
		t.Fatal("tick mismatch accepted")
	}
}

func TestFitRejectsInvalidTensor(t *testing.T) {
	x := tensor.New([]string{"a"}, []string{"X"}, 50)
	x.Set(0, 0, 0, -5)
	if _, err := Fit(x, FitOptions{}); err == nil {
		t.Fatal("invalid tensor accepted")
	}
}

func TestFitDeterministic(t *testing.T) {
	truth := truthBase
	shocks := []Shock{{Keyword: 0, Period: 52, Start: 20, Width: 2, Strength: []float64{8, 8, 8}}}
	obs := synthGlobal(truth, shocks, 170, 0.01, 9)
	a, err := FitGlobalSequence(obs, 0, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitGlobalSequence(obs, 0, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Params != b.Params || len(a.Shocks) != len(b.Shocks) {
		t.Fatalf("fit not deterministic: %+v vs %+v", a.Params, b.Params)
	}
	if math.Abs(a.Cost-b.Cost) > 1e-12 {
		t.Fatalf("cost not deterministic: %g vs %g", a.Cost, b.Cost)
	}
}

func TestTotalCostDecreasesWithBetterModel(t *testing.T) {
	n := 160
	x := tensor.New([]string{"a"}, []string{"X"}, n)
	p := truthBase
	p.N = 80
	shock := Shock{Keyword: 0, Period: NonCyclic, Start: 80, Width: 2, Strength: []float64{10}}
	sim := Simulate(&p, n, epsilonFromShocks([]Shock{shock}, n), -1)
	for t1 := range sim {
		x.Set(0, 0, t1, sim[t1])
	}

	flat := &Model{Keywords: x.Keywords, Locations: x.Locations, Ticks: n,
		Global: []KeywordParams{{N: 1, Beta: 0.1, Delta: 0.5, Gamma: 0.1, I0: 0.001, TEta: NoGrowth}}}
	good, err := Fit(x, FitOptions{DisableGrowth: true})
	if err != nil {
		t.Fatal(err)
	}
	if good.TotalCost(x) >= flat.TotalCost(x) {
		t.Fatalf("fitted cost %g not below strawman cost %g",
			good.TotalCost(x), flat.TotalCost(x))
	}
}
