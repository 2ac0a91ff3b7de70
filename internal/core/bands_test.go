package core

import (
	"math"
	"testing"
)

func bandModel() (*Model, []float64) {
	occ := make([]float64, 8)
	for i := range occ {
		occ[i] = 8 + float64(i%3) // mild occurrence variability
	}
	m := &Model{
		Keywords: []string{"k"}, Locations: []string{"WW"}, Ticks: 420,
		Global: []KeywordParams{{N: 100, Beta: 0.5, Delta: 0.45, Gamma: 0.5,
			I0: 0.02, TEta: NoGrowth}},
		Shocks: []Shock{{Keyword: 0, Period: 52, Start: 6, Width: 2, Strength: occ}},
	}
	obs := synthGlobal(m.Global[0], m.Shocks, 420, 0.02, 31)
	return m, obs
}

func TestForecastBandsShape(t *testing.T) {
	m, obs := bandModel()
	band := m.ForecastBands(0, 104, obs, 100, 0.8, 7)
	if len(band.Lower) != 104 || len(band.Median) != 104 || len(band.Upper) != 104 {
		t.Fatalf("band lengths %d/%d/%d", len(band.Lower), len(band.Median), len(band.Upper))
	}
	for t1 := range band.Median {
		if band.Lower[t1] > band.Median[t1]+1e-9 || band.Median[t1] > band.Upper[t1]+1e-9 {
			t.Fatalf("quantile ordering violated at %d: %g %g %g",
				t1, band.Lower[t1], band.Median[t1], band.Upper[t1])
		}
		if band.Lower[t1] < 0 || math.IsNaN(band.Upper[t1]) {
			t.Fatalf("band values invalid at %d", t1)
		}
	}
}

func TestForecastBandsCoverMedianForecast(t *testing.T) {
	m, obs := bandModel()
	band := m.ForecastBands(0, 60, obs, 200, 0.9, 7)
	point := m.ForecastGlobal(0, 60)
	inside := 0
	for t1 := range point {
		if point[t1] >= band.Lower[t1]-1e-6 && point[t1] <= band.Upper[t1]+1e-6 {
			inside++
		}
	}
	if float64(inside) < 0.8*float64(len(point)) {
		t.Fatalf("point forecast outside 90%% band too often: %d/%d", inside, len(point))
	}
}

func TestForecastBandsWidthGrowsWithNoise(t *testing.T) {
	m, _ := bandModel()
	quiet := synthGlobal(m.Global[0], m.Shocks, 420, 0.005, 33)
	loud := synthGlobal(m.Global[0], m.Shocks, 420, 0.1, 33)
	bq := m.ForecastBands(0, 40, quiet, 150, 0.8, 9)
	bl := m.ForecastBands(0, 40, loud, 150, 0.8, 9)
	wq, wl := 0.0, 0.0
	for t1 := 0; t1 < 40; t1++ {
		wq += bq.Upper[t1] - bq.Lower[t1]
		wl += bl.Upper[t1] - bl.Lower[t1]
	}
	if wl <= wq {
		t.Fatalf("noisier training data should widen bands: %g vs %g", wl, wq)
	}
}

func TestForecastBandsReproducible(t *testing.T) {
	m, obs := bandModel()
	a := m.ForecastBands(0, 30, obs, 50, 0.8, 11)
	b := m.ForecastBands(0, 30, obs, 50, 0.8, 11)
	for t1 := range a.Median {
		if a.Median[t1] != b.Median[t1] || a.Lower[t1] != b.Lower[t1] {
			t.Fatal("bands not reproducible for the same seed")
		}
	}
}

func TestForecastBandsDegenerate(t *testing.T) {
	m, obs := bandModel()
	if band := m.ForecastBands(0, 0, obs, 50, 0.8, 1); band.Median != nil {
		t.Fatal("zero horizon should return empty band")
	}
	if band := m.ForecastBands(0, 10, obs, 0, 0.8, 1); band.Median != nil {
		t.Fatal("zero simulations should return empty band")
	}
	// Bad coverage silently falls back to 0.8.
	band := m.ForecastBands(0, 10, obs, 20, 1.5, 1)
	if len(band.Median) != 10 {
		t.Fatal("fallback coverage failed")
	}
}

// A cyclic shock whose last two occurrences were zero has ended: the point
// forecast and PredictedEvents stop projecting it, and so must every
// bootstrap trajectory. With the fitted curve as the observations the
// residual pool is all zeros, so each trajectory is the point forecast and
// the band has no width.
func TestForecastBandsEndedEventNotProjected(t *testing.T) {
	m := &Model{
		Keywords: []string{"k"}, Locations: []string{"WW"}, Ticks: 260,
		Global: []KeywordParams{{N: 100, Beta: 0.55, Delta: 0.475, Gamma: 0.425,
			I0: 0.01, TEta: NoGrowth}},
		Shocks: []Shock{{Keyword: 0, Period: 52, Start: 10, Width: 2,
			Strength: []float64{8, 9, 8, 0, 0}}},
	}
	const h = 52
	if ev := m.PredictedEvents(0, h); len(ev) != 0 {
		t.Fatalf("PredictedEvents = %v, want none for an ended event", ev)
	}
	point := m.ForecastGlobal(0, h)
	band := m.ForecastBands(0, h, m.SimulateGlobal(0, m.Ticks), 40, 0.8, 7)
	for k, want := range point {
		tol := 1e-9 * math.Max(1, want)
		for _, got := range []float64{band.Lower[k], band.Median[k], band.Upper[k]} {
			if math.Abs(got-want) > tol {
				t.Fatalf("tick %d: band [%g, %g, %g], want the point forecast %g",
					m.Ticks+k, band.Lower[k], band.Median[k], band.Upper[k], want)
			}
		}
	}
}

func TestQuantileSorted(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	if quantileSorted(s, 0) != 1 || quantileSorted(s, 1) != 5 {
		t.Fatal("extremes wrong")
	}
	if got := quantileSorted(s, 0.5); got != 3 {
		t.Fatalf("median = %g", got)
	}
	if quantileSorted(nil, 0.5) != 0 {
		t.Fatal("empty quantile")
	}
}
