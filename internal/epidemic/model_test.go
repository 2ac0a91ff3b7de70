package epidemic

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dspot/internal/stats"
)

func TestKindString(t *testing.T) {
	names := map[Kind]string{SI: "SI", SIR: "SIR", SIRS: "SIRS", SKIPS: "SKIPS", Kind(99): "unknown"}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestSimulateSIMonotoneInfectives(t *testing.T) {
	p := Params{Kind: SI, N: 100, Beta: 0.8, I0: 0.01}
	out := p.Simulate(200)
	for t1 := 1; t1 < len(out); t1++ {
		if out[t1] < out[t1-1]-1e-9 {
			t.Fatalf("SI infectives decreased at %d: %g -> %g", t1, out[t1-1], out[t1])
		}
	}
	if out[len(out)-1] < 99 {
		t.Fatalf("SI should saturate near N, got %g", out[len(out)-1])
	}
}

func TestSimulateSIRPeaksAndDies(t *testing.T) {
	p := Params{Kind: SIR, N: 1000, Beta: 1.2, Delta: 0.3, I0: 0.001}
	out := p.Simulate(300)
	peak := stats.Max(out)
	if peak < 10 {
		t.Fatalf("SIR never took off: peak %g", peak)
	}
	if out[len(out)-1] > peak*0.01 {
		t.Fatalf("SIR should die out: final %g vs peak %g", out[len(out)-1], peak)
	}
}

func TestSimulateSIRSEndemicEquilibrium(t *testing.T) {
	p := Params{Kind: SIRS, N: 1000, Beta: 1.0, Delta: 0.3, Gamma: 0.05, I0: 0.01}
	out := p.Simulate(2000)
	// SIRS with immunity loss reaches a non-zero endemic level.
	tail := out[1800:]
	if stats.Mean(tail) < 1 {
		t.Fatalf("SIRS endemic level too low: %g", stats.Mean(tail))
	}
	if stats.Std(tail) > stats.Mean(tail)*0.05 {
		t.Fatalf("SIRS tail not settled: std %g mean %g", stats.Std(tail), stats.Mean(tail))
	}
}

func TestSimulateSKIPSOscillates(t *testing.T) {
	p := Params{Kind: SKIPS, N: 1000, Beta: 1.0, Delta: 0.3, Gamma: 0.05,
		I0: 0.01, Period: 52, Amp: 0.6}
	out := p.Simulate(1040)
	tail := out[520:]
	// Seasonal forcing keeps oscillation alive in the long run.
	if stats.Std(tail) < stats.Mean(tail)*0.05 {
		t.Fatalf("SKIPS tail flat: std %g mean %g", stats.Std(tail), stats.Mean(tail))
	}
	acf := stats.Autocorrelation(tail, 52)
	if acf < 0.3 {
		t.Fatalf("SKIPS tail not periodic at forcing period: acf %g", acf)
	}
}

func TestSimulateFractionsBounded(t *testing.T) {
	// Even absurd parameters must produce finite non-negative output.
	p := Params{Kind: SKIPS, N: 10, Beta: 50, Delta: 10, Gamma: 10, I0: 1,
		Period: 3, Amp: 5, Phase: 1}
	for _, v := range p.Simulate(100) {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 10+1e-9 {
			t.Fatalf("unbounded output %g", v)
		}
	}
}

func TestBetaSeasonalNonNegative(t *testing.T) {
	p := Params{Kind: SKIPS, Beta: 1, Period: 10, Amp: 2}
	for tt := 0; tt < 20; tt++ {
		if p.beta(tt) < 0 {
			t.Fatalf("negative forced beta at %d", tt)
		}
	}
	// Non-SKIPS kinds ignore forcing.
	q := Params{Kind: SIRS, Beta: 1, Period: 10, Amp: 2}
	if q.beta(5) != 1 {
		t.Fatalf("SIRS beta forced: %g", q.beta(5))
	}
}

func TestFitRecoversSIR(t *testing.T) {
	truth := Params{Kind: SIR, N: 500, Beta: 1.1, Delta: 0.25, I0: 0.005}
	obs := truth.Simulate(150)
	got, err := Fit(context.Background(), SIR, obs)
	if err != nil {
		t.Fatal(err)
	}
	fit := got.Simulate(150)
	rmse := stats.RMSE(obs, fit)
	if rmse > stats.Max(obs)*0.05 {
		t.Fatalf("SIR self-fit RMSE %g (peak %g), params %+v", rmse, stats.Max(obs), got)
	}
}

func TestFitRecoversSIRS(t *testing.T) {
	truth := Params{Kind: SIRS, N: 300, Beta: 0.9, Delta: 0.3, Gamma: 0.04, I0: 0.01}
	obs := truth.Simulate(200)
	got, err := Fit(context.Background(), SIRS, obs)
	if err != nil {
		t.Fatal(err)
	}
	rmse := stats.RMSE(obs, got.Simulate(200))
	if rmse > stats.Max(obs)*0.05 {
		t.Fatalf("SIRS self-fit RMSE %g, params %+v", rmse, got)
	}
}

func TestFitSKIPSFindsPeriodicity(t *testing.T) {
	truth := Params{Kind: SKIPS, N: 400, Beta: 1.0, Delta: 0.3, Gamma: 0.06,
		I0: 0.01, Period: 52, Amp: 0.5, Phase: 0.3}
	obs := truth.Simulate(312)
	got, err := Fit(context.Background(), SKIPS, obs)
	if err != nil {
		t.Fatal(err)
	}
	rmse := stats.RMSE(obs, got.Simulate(312))
	// SKIPS has a rugged landscape; demand a clearly better-than-flat fit.
	if rmse > stats.Std(obs) {
		t.Fatalf("SKIPS fit no better than mean: RMSE %g vs std %g", rmse, stats.Std(obs))
	}
}

func TestFitTooShort(t *testing.T) {
	if _, err := Fit(context.Background(), SIR, []float64{1, 2}); err == nil {
		t.Fatal("short sequence accepted")
	}
	nan := math.NaN()
	if _, err := Fit(context.Background(), SIR, []float64{nan, nan, nan, nan, nan}); err == nil {
		t.Fatal("all-missing sequence accepted")
	}
}

func TestFitSkipsMissing(t *testing.T) {
	truth := Params{Kind: SIR, N: 500, Beta: 1.1, Delta: 0.25, I0: 0.005}
	obs := truth.Simulate(150)
	for i := 10; i < 150; i += 13 {
		obs[i] = math.NaN()
	}
	got, err := Fit(context.Background(), SIR, obs)
	if err != nil {
		t.Fatal(err)
	}
	rmse := stats.RMSE(truth.Simulate(150), got.Simulate(150))
	if rmse > truth.N*0.05 {
		t.Fatalf("fit with missing data RMSE %g", rmse)
	}
}

// Property: simulation output is always within [0, N] and finite for random
// valid parameters.
func TestSimulateBoundedQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Params{
			Kind:   Kind(rng.Intn(4)),
			N:      rng.Float64() * 1000,
			Beta:   rng.Float64() * 3,
			Delta:  rng.Float64(),
			Gamma:  rng.Float64(),
			I0:     rng.Float64(),
			Period: 2 + rng.Intn(60),
			Amp:    rng.Float64(),
			Phase:  rng.Float64()*2*math.Pi - math.Pi,
		}
		for _, v := range p.Simulate(120) {
			if math.IsNaN(v) || v < -1e-9 || v > p.N+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: simulation is deterministic.
func TestSimulateDeterministicQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Params{Kind: SIRS, N: 100, Beta: rng.Float64() * 2,
			Delta: rng.Float64(), Gamma: rng.Float64(), I0: rng.Float64() * 0.1}
		a, b := p.Simulate(50), p.Simulate(50)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
