package core

import (
	"math"
	"testing"

	"dspot/internal/mdl"
	"dspot/internal/tensor"
)

func TestCostShockChargesNonZeroStrengths(t *testing.T) {
	s := Shock{Keyword: 0, Period: 52, Start: 0, Width: 1,
		Strength: []float64{1, 0, 2}}
	full := costShock(&s, 4, 10, 200)
	s2 := s
	s2.Strength = []float64{1, 0, 0}
	fewer := costShock(&s2, 4, 10, 200)
	if full-fewer != mdl.FloatCost {
		t.Fatalf("one extra non-zero strength should cost exactly one float: %g vs %g",
			full, fewer)
	}
}

func TestCostShockChargesLocalEntries(t *testing.T) {
	s := Shock{Keyword: 0, Period: 0, Start: 0, Width: 1, Strength: []float64{1}}
	bare := costShock(&s, 4, 10, 200)
	s.Local = [][]float64{{0, 0, 3, 0, 0, 7, 0, 0, 0, 0}}
	withLocal := costShock(&s, 4, 10, 200)
	entry := mdl.IntCost(4) + mdl.IntCost(10) + mdl.IntCost(200) + mdl.FloatCost
	if math.Abs(withLocal-bare-2*entry) > 1e-9 {
		t.Fatalf("two local entries should cost 2×entry: got %g", withLocal-bare)
	}
}

func TestCostShockTensorIncludesLogStar(t *testing.T) {
	if got := costShockTensor(nil, 1, 1, 100); got != mdl.LogStar(0) {
		t.Fatalf("empty tensor cost = %g", got)
	}
	shocks := []Shock{
		{Keyword: 0, Period: 0, Start: 0, Width: 1, Strength: []float64{1}},
		{Keyword: 0, Period: 0, Start: 5, Width: 1, Strength: []float64{1}},
	}
	want := mdl.LogStar(2) + costShock(&shocks[0], 1, 1, 100) + costShock(&shocks[1], 1, 1, 100)
	if got := costShockTensor(shocks, 1, 1, 100); math.Abs(got-want) > 1e-9 {
		t.Fatalf("tensor cost = %g, want %g", got, want)
	}
}

func TestCostGrowthGlobal(t *testing.T) {
	none := []KeywordParams{{TEta: NoGrowth}, {TEta: NoGrowth}}
	if got := costGrowthGlobal(none); got != 2 { // just the indicator bits
		t.Fatalf("no-growth cost = %g, want 2", got)
	}
	one := []KeywordParams{{TEta: 50, Eta0: 0.3}, {TEta: NoGrowth}}
	if got := costGrowthGlobal(one); got != 2+mdl.FloatsCost(2) {
		t.Fatalf("one-growth cost = %g", got)
	}
}

func TestCostLocalMatrices(t *testing.T) {
	m := &Model{Keywords: []string{"a", "b"}, Locations: []string{"X", "Y", "Z"}}
	if got := costLocalMatrices(m); got != 0 {
		t.Fatalf("nil local matrices cost %g", got)
	}
	m.LocalN = newMatrix(2, 3)
	if got := costLocalMatrices(m); got != mdl.FloatsCost(6) {
		t.Fatalf("B_L cost = %g", got)
	}
	m.LocalR = newMatrix(2, 3)
	if got := costLocalMatrices(m); got != mdl.FloatsCost(12) {
		t.Fatalf("B_L+R_L cost = %g", got)
	}
}

func TestResidualsMissingPropagation(t *testing.T) {
	obs := []float64{1, tensor.Missing, 3}
	est := []float64{0.5, 2, 2}
	r := residuals(obs, est)
	if r[0] != 0.5 || !math.IsNaN(r[1]) || r[2] != 1 {
		t.Fatalf("residuals = %v", r)
	}
	// est shorter than obs: compare over common prefix.
	r = residuals(obs, est[:2])
	if len(r) != 2 {
		t.Fatalf("short-est residuals length %d", len(r))
	}
}

func TestTotalCostComponentsFinite(t *testing.T) {
	n := 60
	x := tensor.New([]string{"a"}, []string{"X", "Y"}, n)
	p := KeywordParams{N: 10, Beta: 0.5, Delta: 0.45, Gamma: 0.5, I0: 0.02, TEta: NoGrowth}
	sim := Simulate(&p, n, nil, -1)
	for j := 0; j < 2; j++ {
		for t1 := 0; t1 < n; t1++ {
			x.Set(0, j, t1, sim[t1]*(0.4+0.2*float64(j)))
		}
	}
	m := &Model{Keywords: x.Keywords, Locations: x.Locations, Ticks: n,
		Global: []KeywordParams{p}}
	c1 := m.TotalCost(x) // global coding path (no local matrices)
	if math.IsNaN(c1) || math.IsInf(c1, 0) {
		t.Fatalf("global-path cost %g", c1)
	}
	m.LocalN = [][]float64{{4, 6}}
	m.LocalR = [][]float64{{0, 0}}
	c2 := m.TotalCost(x) // local coding path
	if math.IsNaN(c2) || math.IsInf(c2, 0) {
		t.Fatalf("local-path cost %g", c2)
	}
	if c1 == c2 {
		t.Fatal("local and global coding paths should differ")
	}
}

func TestCostBreakdownSumsToTotal(t *testing.T) {
	n := 80
	x := tensor.New([]string{"a"}, []string{"X", "Y"}, n)
	p := KeywordParams{N: 10, Beta: 0.5, Delta: 0.45, Gamma: 0.5, I0: 0.02, TEta: NoGrowth}
	sim := Simulate(&p, n, nil, -1)
	for j := 0; j < 2; j++ {
		for t1 := range sim {
			x.Set(0, j, t1, sim[t1]*0.5)
		}
	}
	m := &Model{Keywords: x.Keywords, Locations: x.Locations, Ticks: n,
		Global: []KeywordParams{p},
		Shocks: []Shock{{Keyword: 0, Period: 0, Start: 10, Width: 1, Strength: []float64{2}}}}
	b := m.CostBreakdown(x)
	sum := b.Header + b.Base + b.Growth + b.Locals + b.Shocks + b.Coding
	if math.Abs(sum-b.Total) > 1e-9 {
		t.Fatalf("breakdown parts %g != total %g", sum, b.Total)
	}
	if math.Abs(b.Total-m.TotalCost(x)) > 1e-9 {
		t.Fatalf("breakdown total %g != TotalCost %g", b.Total, m.TotalCost(x))
	}
	if b.Shocks <= 0 || b.Header <= 0 || b.Base <= 0 {
		t.Fatalf("component missing: %+v", b)
	}
	// Local matrices present → Locals component counted.
	m.LocalN = [][]float64{{5, 5}}
	m.LocalR = [][]float64{{0, 0}}
	b2 := m.CostBreakdown(x)
	if b2.Locals <= 0 {
		t.Fatal("Locals component missing with local matrices present")
	}
}

func TestGlobalCodingCostRewardsBetterFit(t *testing.T) {
	n := 80
	p := KeywordParams{N: 10, Beta: 0.5, Delta: 0.45, Gamma: 0.5, I0: 0.02, TEta: NoGrowth}
	obs := Simulate(&p, n, nil, -1)
	good := &Model{Keywords: []string{"a"}, Ticks: n, Global: []KeywordParams{p}}
	bad := &Model{Keywords: []string{"a"}, Ticks: n,
		Global: []KeywordParams{{N: 1, Beta: 0.1, Delta: 0.9, Gamma: 0.1, I0: 0.5, TEta: NoGrowth}}}
	if good.GlobalCodingCost([][]float64{obs}) >= bad.GlobalCodingCost([][]float64{obs}) {
		t.Fatal("exact model should code the data more cheaply")
	}
}

func TestEpsilonFromShocksMatchesModelEpsilon(t *testing.T) {
	shocks := []Shock{
		{Keyword: 0, Period: 10, Start: 1, Width: 2, Strength: []float64{2, 3}},
		{Keyword: 0, Period: 0, Start: 5, Width: 1, Strength: []float64{7}},
	}
	m := &Model{Keywords: []string{"a"}, Ticks: 20, Global: make([]KeywordParams, 1),
		Shocks: shocks}
	a := epsilonOf(shocks, 20)
	b := m.EpsilonGlobal(0, 20)
	for t1 := range a {
		if a[t1] != b[t1] {
			t.Fatalf("mismatch at %d: %g vs %g", t1, a[t1], b[t1])
		}
	}
}
