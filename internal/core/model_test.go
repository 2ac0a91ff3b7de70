package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestShockOccurrences(t *testing.T) {
	s := Shock{Period: NonCyclic, Start: 10, Width: 2}
	if got := s.Occurrences(100); got != 1 {
		t.Fatalf("non-cyclic occurrences = %d, want 1", got)
	}
	s = Shock{Period: 52, Start: 10, Width: 2}
	if got := s.Occurrences(100); got != 2 { // ticks 10 and 62
		t.Fatalf("cyclic occurrences = %d, want 2", got)
	}
	if got := s.Occurrences(10); got != 0 { // starts at the window edge
		t.Fatalf("occurrences beyond window = %d, want 0", got)
	}
	s = Shock{Period: 52, Start: 0, Width: 1}
	if got := s.Occurrences(105); got != 3 { // 0, 52, 104
		t.Fatalf("occurrences = %d, want 3", got)
	}
}

func TestShockOccurrenceStartAndAt(t *testing.T) {
	s := Shock{Period: 52, Start: 10, Width: 3}
	if got := s.OccurrenceStart(2); got != 114 {
		t.Fatalf("OccurrenceStart(2) = %d, want 114", got)
	}
	cases := []struct{ t, want int }{
		{9, -1}, {10, 0}, {12, 0}, {13, -1}, {62, 1}, {64, 1}, {65, -1}, {114, 2},
	}
	for _, c := range cases {
		if got := s.OccurrenceAt(c.t); got != c.want {
			t.Fatalf("OccurrenceAt(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	nc := Shock{Period: NonCyclic, Start: 5, Width: 2}
	if nc.OccurrenceAt(5) != 0 || nc.OccurrenceAt(6) != 0 || nc.OccurrenceAt(7) != -1 {
		t.Fatal("non-cyclic OccurrenceAt wrong")
	}
}

func TestShockMeanStrength(t *testing.T) {
	s := Shock{Strength: []float64{2, 4, 0}}
	if got := s.MeanStrength(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("MeanStrength = %g, want 2", got)
	}
	empty := Shock{}
	if empty.MeanStrength() != 0 {
		t.Fatal("empty MeanStrength should be 0")
	}
}

func TestShockValidate(t *testing.T) {
	good := Shock{Period: 52, Start: 10, Width: 3, Strength: []float64{1, 1}}
	if err := good.Validate(100, 0); err != nil {
		t.Fatalf("valid shock rejected: %v", err)
	}
	bad := []Shock{
		{Period: 52, Start: 10, Width: 0, Strength: []float64{1}},
		{Period: 52, Start: -1, Width: 2, Strength: []float64{1}},
		{Period: 52, Start: 200, Width: 2, Strength: []float64{1}},
		{Period: -3, Start: 10, Width: 2, Strength: []float64{1}},
		{Period: 4, Start: 10, Width: 9, Strength: []float64{1}},
		{Period: 52, Start: 10, Width: 3, Strength: []float64{1}},     // wrong count
		{Period: 52, Start: 10, Width: 3, Strength: []float64{-1, 1}}, // negative
		{Period: 52, Start: 10, Width: 3, Strength: []float64{math.NaN(), 1}} /* NaN */}
	for i, s := range bad {
		if err := s.Validate(100, 0); err == nil {
			t.Fatalf("bad shock %d accepted: %+v", i, s)
		}
	}
	withLocal := good
	withLocal.Local = [][]float64{{1, 2}, {0, 1}}
	if err := withLocal.Validate(100, 2); err != nil {
		t.Fatalf("valid local matrix rejected: %v", err)
	}
	withLocal.Local = [][]float64{{1, 2}}
	if err := withLocal.Validate(100, 2); err == nil {
		t.Fatal("row-count mismatch accepted")
	}
	withLocal.Local = [][]float64{{1}, {0}}
	if err := withLocal.Validate(100, 2); err == nil {
		t.Fatal("column-count mismatch accepted")
	}
}

func TestEpsilonGlobalProfile(t *testing.T) {
	m := &Model{
		Keywords: []string{"k"}, Ticks: 20,
		Global: []KeywordParams{{}},
		Shocks: []Shock{{Keyword: 0, Period: 10, Start: 2, Width: 2, Strength: []float64{3, 5}}},
	}
	eps := m.EpsilonGlobal(0, 20)
	want := make([]float64, 20)
	for i := range want {
		want[i] = 1
	}
	want[2], want[3] = 4, 4
	want[12], want[13] = 6, 6
	for i := range want {
		if math.Abs(eps[i]-want[i]) > 1e-12 {
			t.Fatalf("eps[%d] = %g, want %g", i, eps[i], want[i])
		}
	}
}

func TestEpsilonOverlappingShocksAdd(t *testing.T) {
	m := &Model{
		Keywords: []string{"k"}, Ticks: 10,
		Global: []KeywordParams{{}},
		Shocks: []Shock{
			{Keyword: 0, Start: 2, Width: 3, Strength: []float64{2}},
			{Keyword: 0, Start: 3, Width: 2, Strength: []float64{5}},
		},
	}
	eps := m.EpsilonGlobal(0, 10)
	if eps[2] != 3 || eps[3] != 8 || eps[4] != 8 || eps[5] != 1 {
		t.Fatalf("overlap eps = %v", eps)
	}
}

func TestEpsilonLocalFallsBackToGlobal(t *testing.T) {
	m := &Model{
		Keywords: []string{"k"}, Locations: []string{"A", "B"}, Ticks: 10,
		Global: []KeywordParams{{}},
		Shocks: []Shock{{Keyword: 0, Start: 2, Width: 1, Strength: []float64{4}}},
	}
	eps := m.EpsilonLocal(0, 1, 10)
	if eps[2] != 5 {
		t.Fatalf("fallback eps[2] = %g, want 5", eps[2])
	}
	m.Shocks[0].Local = [][]float64{{0, 9}}
	epsA := m.EpsilonLocal(0, 0, 10)
	epsB := m.EpsilonLocal(0, 1, 10)
	if epsA[2] != 1 || epsB[2] != 10 {
		t.Fatalf("local eps = %g / %g, want 1 / 10", epsA[2], epsB[2])
	}
}

func TestSimulateConservesPopulation(t *testing.T) {
	p := KeywordParams{N: 100, Beta: 0.8, Delta: 0.4, Gamma: 0.3, I0: 0.01, TEta: NoGrowth}
	out := Simulate(&p, 200, nil, -1)
	for i, v := range out {
		if v < 0 || v > p.N+1e-9 || math.IsNaN(v) {
			t.Fatalf("out[%d] = %g escapes [0,N]", i, v)
		}
	}
}

func TestSimulateShockCausesSpike(t *testing.T) {
	p := KeywordParams{N: 100, Beta: 0.5, Delta: 0.45, Gamma: 0.5, I0: 0.01, TEta: NoGrowth}
	base := Simulate(&p, 100, nil, -1)
	eps := make([]float64, 100)
	for i := range eps {
		eps[i] = 1
	}
	for t1 := 50; t1 < 53; t1++ {
		eps[t1] = 11
	}
	shocked := Simulate(&p, 100, eps, -1)
	for t1 := 0; t1 < 50; t1++ {
		if math.Abs(shocked[t1]-base[t1]) > 1e-9 {
			t.Fatalf("pre-shock divergence at %d", t1)
		}
	}
	if shocked[54] <= base[54]*1.5 {
		t.Fatalf("shock did not spike: %g vs %g", shocked[54], base[54])
	}
}

func TestSimulateGrowthRaisesBase(t *testing.T) {
	p := KeywordParams{N: 100, Beta: 0.6, Delta: 0.5, Gamma: 0.3, I0: 0.01, TEta: NoGrowth}
	base := Simulate(&p, 300, nil, -1)
	p.TEta, p.Eta0 = 150, 0.5
	grown := Simulate(&p, 300, nil, -1)
	for t1 := 0; t1 < 150; t1++ {
		if math.Abs(grown[t1]-base[t1]) > 1e-9 {
			t.Fatalf("pre-growth divergence at %d", t1)
		}
	}
	if grown[299] <= base[299]*1.1 {
		t.Fatalf("growth did not raise base: %g vs %g", grown[299], base[299])
	}
}

func TestSimulateGrowthRateOverride(t *testing.T) {
	p := KeywordParams{N: 100, Beta: 0.6, Delta: 0.5, Gamma: 0.3, I0: 0.01, TEta: 50, Eta0: 0.2}
	own := Simulate(&p, 200, nil, -1)
	stronger := Simulate(&p, 200, nil, 1.0)
	weaker := Simulate(&p, 200, nil, 0)
	if stronger[199] <= own[199] || weaker[199] >= own[199] {
		t.Fatalf("override ordering wrong: weak %g own %g strong %g",
			weaker[199], own[199], stronger[199])
	}
}

func TestHasGrowth(t *testing.T) {
	p := KeywordParams{TEta: NoGrowth, Eta0: 0.5}
	if p.HasGrowth() {
		t.Fatal("NoGrowth with eta0 should be inactive")
	}
	p = KeywordParams{TEta: 10, Eta0: 0}
	if p.HasGrowth() {
		t.Fatal("zero eta0 should be inactive")
	}
	p = KeywordParams{TEta: 10, Eta0: 0.5}
	if !p.HasGrowth() {
		t.Fatal("growth should be active")
	}
}

func TestShocksFor(t *testing.T) {
	m := &Model{Shocks: []Shock{{Keyword: 0}, {Keyword: 1}, {Keyword: 0}}}
	if got := len(m.ShocksFor(0)); got != 2 {
		t.Fatalf("ShocksFor(0) = %d, want 2", got)
	}
	if got := len(m.ShocksFor(2)); got != 0 {
		t.Fatalf("ShocksFor(2) = %d, want 0", got)
	}
}

// Property: simulation stays within [0, N] and is deterministic for random
// parameter vectors and random shock profiles.
func TestSimulateBoundedDeterministicQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := KeywordParams{
			N:    rng.Float64() * 1000,
			Beta: rng.Float64() * 3, Delta: rng.Float64() * 2,
			Gamma: rng.Float64() * 2, I0: rng.Float64(),
			TEta: rng.Intn(100) - 1, Eta0: rng.Float64() * 2,
		}
		n := 50 + rng.Intn(100)
		eps := make([]float64, n)
		for i := range eps {
			eps[i] = 1
			if rng.Float64() < 0.1 {
				eps[i] += rng.Float64() * 30
			}
		}
		a := Simulate(&p, n, eps, -1)
		b := Simulate(&p, n, eps, -1)
		for i := range a {
			if a[i] != b[i] || a[i] < 0 || a[i] > p.N+1e-9 || math.IsNaN(a[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: occurrence bookkeeping is self-consistent — OccurrenceAt inverts
// OccurrenceStart for ticks inside windows.
func TestOccurrenceConsistencyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(500)
		width := 1 + rng.Intn(5)
		period := 0
		if rng.Float64() < 0.7 {
			period = width + 1 + rng.Intn(60)
		}
		s := Shock{Period: period, Start: rng.Intn(n), Width: width}
		occ := s.Occurrences(n)
		for m := 0; m < occ; m++ {
			start := s.OccurrenceStart(m)
			for t1 := start; t1 < start+width && t1 < n; t1++ {
				if got := s.OccurrenceAt(t1); got != m {
					return false
				}
			}
			if start-1 >= 0 && s.OccurrenceAt(start-1) == m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKeywordIndexFirstMatch(t *testing.T) {
	m := &Model{Keywords: []string{"a", "b", "b", "c"}}
	if i, ok := m.KeywordIndex("a"); !ok || i != 0 {
		t.Fatalf("KeywordIndex(a) = %d,%v", i, ok)
	}
	// Duplicate axes are malformed, but lookups must still deterministically
	// pick the first occurrence (the old handler scan kept the last).
	if i, ok := m.KeywordIndex("b"); !ok || i != 1 {
		t.Fatalf("KeywordIndex(b) = %d,%v, want first match 1", i, ok)
	}
	if i, ok := m.KeywordIndex("zzz"); ok || i != -1 {
		t.Fatalf("KeywordIndex(zzz) = %d,%v", i, ok)
	}
}
