package dspot

// One benchmark per figure of the paper's evaluation (Figs. 1, 4–11), plus
// micro-benchmarks for the core primitives. Figure benchmarks run the same
// code paths as cmd/dspot-exp at the Small experiment scale and report the
// headline quality metric alongside timing, so
//
//	go test -bench=. -benchmem
//
// regenerates a compact form of the whole evaluation. Table 1 (the
// capability matrix) is qualitative and documented in README.md instead.

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"dspot/internal/core"
	"dspot/internal/experiments"
	"dspot/internal/lm"
	"dspot/internal/stats"
)

func benchCfg() experiments.Config {
	cfg := experiments.Small()
	cfg.Workers = 4
	return cfg
}

// BenchmarkFig01HarryPotter — Fig. 1: event detection + world reaction.
func BenchmarkFig01HarryPotter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Fit.NRMSE, "nrmse")
		b.ReportMetric(float64(len(res.Fit.Events)), "events")
	}
}

// BenchmarkFig04Ablation — Fig. 4: growth/shock ablation on "Amazon".
func BenchmarkFig04Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RMSEBoth, "rmse-both")
		b.ReportMetric(res.RMSENone, "rmse-none")
	}
}

// BenchmarkFig05Keywords — Fig. 5: global fits for the 8 keywords.
func BenchmarkFig05Keywords(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		mean := 0.0
		for _, r := range res.Reports {
			mean += r.NRMSE
		}
		b.ReportMetric(mean/float64(len(res.Reports)), "mean-nrmse")
	}
}

// BenchmarkFig06Twitter — Fig. 6: hashtag fits.
func BenchmarkFig06Twitter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		mean := 0.0
		for _, r := range res.Reports {
			mean += r.NRMSE
		}
		b.ReportMetric(mean/float64(len(res.Reports)), "mean-nrmse")
	}
}

// BenchmarkFig07Memes — Fig. 7: meme fits.
func BenchmarkFig07Memes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		mean := 0.0
		for _, r := range res.Reports {
			mean += r.NRMSE
		}
		b.ReportMetric(mean/float64(len(res.Reports)), "mean-nrmse")
	}
}

// BenchmarkFig08EbolaLocal — Fig. 8: local analysis + outlier detection.
func BenchmarkFig08EbolaLocal(b *testing.B) {
	cfg := benchCfg()
	cfg.Locations = 20
	cfg.Ticks = 0 // needs the 2014 burst
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Similar)), "similar")
		b.ReportMetric(float64(len(res.Outliers)), "outliers")
	}
}

// BenchmarkFig09GlobalAccuracy — Fig. 9(a): Δ-SPOT vs SIRS/SKIPS/FUNNEL.
func BenchmarkFig09GlobalAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9Global(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Global["D-SPOT"], "dspot-nrmse")
		b.ReportMetric(res.Global["SIRS"], "sirs-nrmse")
		b.ReportMetric(res.Global["SKIPS"], "skips-nrmse")
		b.ReportMetric(res.Global["FUNNEL"], "funnel-nrmse")
	}
}

// BenchmarkFig09LocalAccuracy — Fig. 9(b): local-level comparison. Smaller
// location budget: every baseline fits every local sequence.
func BenchmarkFig09LocalAccuracy(b *testing.B) {
	cfg := benchCfg()
	cfg.Locations = 6
	cfg.Ticks = 200
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9Local(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Local["D-SPOT"], "dspot-nrmse")
		b.ReportMetric(res.Local["FUNNEL"], "funnel-nrmse")
	}
}

// BenchmarkFig10ScalabilityKeywords — Fig. 10(a): cost vs d.
func BenchmarkFig10ScalabilityKeywords(b *testing.B) {
	cfg := benchCfg()
	cfg.Ticks = 160
	cfg.Locations = 8
	sweeps := experiments.Fig10Sweeps{Keywords: []int{1, 2, 4},
		Locations: []int{4}, Ticks: []int{160}}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(cfg, sweeps)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.LinearityR2(res.ByKeywords), "r2-linear")
	}
}

// BenchmarkFig10ScalabilityLocations — Fig. 10(b): cost vs l.
func BenchmarkFig10ScalabilityLocations(b *testing.B) {
	cfg := benchCfg()
	cfg.Ticks = 160
	sweeps := experiments.Fig10Sweeps{Keywords: []int{1},
		Locations: []int{4, 8, 16}, Ticks: []int{160}}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(cfg, sweeps)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.LinearityR2(res.ByLocations), "r2-linear")
	}
}

// BenchmarkFig10ScalabilityTicks — Fig. 10(c): cost vs n.
func BenchmarkFig10ScalabilityTicks(b *testing.B) {
	cfg := benchCfg()
	cfg.Locations = 8
	sweeps := experiments.Fig10Sweeps{Keywords: []int{1},
		Locations: []int{4}, Ticks: []int{80, 160, 240}}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(cfg, sweeps)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.LinearityR2(res.ByTicks), "r2-linear")
	}
}

// BenchmarkFig11Forecast — Fig. 11: Grammy forecasting vs AR/TBATS.
func BenchmarkFig11Forecast(b *testing.B) {
	cfg := benchCfg()
	cfg.Ticks = 0 // full series: the horizon must contain future spikes
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(cfg, 400)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RMSE["D-SPOT"], "dspot-rmse")
		b.ReportMetric(res.Flat, "flat-rmse")
	}
}

// Extension studies (beyond the paper's figures; see EXPERIMENTS.md).

// BenchmarkAblationCycles — the cyclic-shock-class ablation.
func BenchmarkAblationCycles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationCycles(benchCfg(), 300)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FullFcstRMSE, "full-fcst-rmse")
		b.ReportMetric(res.NoCycFcstRMSE, "nocyc-fcst-rmse")
	}
}

// BenchmarkAblationMDL — the MDL-gate ablation.
func BenchmarkAblationMDL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationMDL(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.GatedShocks), "gated-shocks")
		b.ReportMetric(float64(res.UngatedShocks), "ungated-shocks")
	}
}

// BenchmarkRobustness — missing/noise degradation sweeps.
func BenchmarkRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Robustness(benchCfg(),
			[]float64{0, 0.2}, []float64{0.02, 0.1})
		if err != nil {
			b.Fatal(err)
		}
		found := 0.0
		if res.Missing[1].Score.PeriodFound {
			found = 1
		}
		b.ReportMetric(found, "period-at-20pct-missing")
	}
}

// BenchmarkRollingForecast — rolling-origin comparison on the grammy series.
func BenchmarkRollingForecast(b *testing.B) {
	rc := experiments.RollingConfig{FirstOrigin: 400, Horizon: 52, Step: 124}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Rolling(benchCfg(), rc, []string{"grammy"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RMSE["D-SPOT"], "dspot-nrmse")
		b.ReportMetric(res.RMSE["flat"], "flat-nrmse")
	}
}

// BenchmarkTailScale — wide-fit throughput over a bursty hashtag tail.
func BenchmarkTailScale(b *testing.B) {
	cfg := benchCfg()
	cfg.Locations = 4
	for i := 0; i < b.N; i++ {
		res, err := experiments.TailScale(cfg, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PerSequence, "s/sequence")
		b.ReportMetric(res.MeanNRMSE, "mean-nrmse")
	}
}

// Micro-benchmarks for the primitives the figures are built on.

// BenchmarkSimulate576 measures one SIV simulation at GoogleTrends length.
func BenchmarkSimulate576(b *testing.B) {
	p := KeywordParams{N: 100, Beta: 0.5, Delta: 0.45, Gamma: 0.5, I0: 0.02,
		TEta: NoGrowth}
	eps := make([]float64, 576)
	for i := range eps {
		eps[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Simulate(&p, 576, eps, -1)
	}
}

// BenchmarkLevenbergMarquardt measures an LM fit of the 5-parameter base
// model against a 576-tick sequence along the production path: lm.FitInto
// with the base fit's bounds, residuals simulated into LM's own buffers,
// and the analytic Jacobian from SimulateWithSensitivities over
// BaseSensSpecs, the Jacobian the fitters install.
func BenchmarkLevenbergMarquardt(b *testing.B) {
	const n = 576
	truth := KeywordParams{N: 1, Beta: 0.5, Delta: 0.45, Gamma: 0.5, I0: 0.02,
		TEta: NoGrowth}
	obs := core.Simulate(&truth, n, nil, -1)
	params := func(v []float64) KeywordParams {
		return KeywordParams{N: v[0], Beta: v[1], Delta: v[2], Gamma: v[3],
			I0: v[4], TEta: NoGrowth}
	}
	resid := func(dst, v []float64) []float64 {
		p := params(v)
		dst = core.SimulateInto(dst, &p, n, nil, -1)
		for t := range dst {
			dst[t] -= obs[t]
		}
		return dst
	}
	specs := core.BaseSensSpecs()
	sim := make([]float64, n)
	jac := func(jac, v []float64) {
		p := params(v)
		core.SimulateWithSensitivities(sim, jac, &p, n, nil, -1, specs)
	}
	opts := lm.Options{MaxIter: 50, Jacobian: jac,
		Lower: []float64{1e-4, 1e-4, 1e-4, 1e-4, 1e-7},
		Upper: []float64{20, 5, 2, 2, 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lm.FitInto(resid, []float64{0.5, 0.3, 0.3, 0.3, 0.01}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLMWideCandidate measures one LM fit of a shock candidate's
// vector at the width a 104-tick cold fit reaches: the 5 base parameters
// plus one strength for each of the 26 occurrences of a period-4 shock, 31
// in all, boxed as the fitters box them. It runs the production path:
// lm.FitInto with the residuals (simulated − observed) written into LM's
// buffers and the analytic Jacobian of SimulateWithSensitivities.
// A strength's Jacobian column is zero until its occurrence starts, so 42%
// of this Jacobian's entries are exact zeros.
func BenchmarkLMWideCandidate(b *testing.B) {
	const n, base = 104, 5
	shock := core.Shock{Keyword: 0, Period: 4, Start: 2, Width: 1}
	occ := shock.Occurrences(n)
	specs := core.BaseSensSpecs()
	for m := 0; m < occ; m++ {
		specs = append(specs, core.StrengthSpec(&shock, m, n))
	}
	eps := make([]float64, n)
	assemble := func(v []float64) KeywordParams {
		for t := range eps {
			eps[t] = 1
		}
		for m, s := range v[base:] {
			eps[shock.OccurrenceStart(m)] += s
		}
		return KeywordParams{N: v[0], Beta: v[1], Delta: v[2], Gamma: v[3], I0: v[4],
			TEta: NoGrowth}
	}
	truthV := []float64{1, 0.55, 0.475, 0.425, 0.01}
	for m := 0; m < occ; m++ {
		truthV = append(truthV, float64(2+m%5))
	}
	truth := assemble(truthV)
	obs := core.Simulate(&truth, n, eps, -1)
	for t := range obs {
		obs[t] *= 1 + 0.03*math.Sin(1.7*float64(t))
	}
	resid := func(dst, v []float64) []float64 {
		p := assemble(v)
		dst = core.SimulateInto(dst, &p, n, eps, -1)
		for t := range dst {
			dst[t] -= obs[t]
		}
		return dst
	}
	sim := make([]float64, n)
	jac := func(jac, v []float64) {
		p := assemble(v)
		core.SimulateWithSensitivities(sim, jac, &p, n, eps, -1, specs)
	}
	p0 := []float64{0.5, 0.3, 0.3, 0.3, 0.01}
	lo := []float64{1e-4, 1e-4, 1e-4, 1e-4, 1e-7}
	hi := []float64{20, 5, 2, 2, 1}
	for m := 0; m < occ; m++ {
		p0, lo, hi = append(p0, 4), append(lo, 0), append(hi, 80)
	}
	opts := lm.Options{MaxIter: 50, Jacobian: jac, Lower: lo, Upper: hi}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lm.FitInto(resid, p0, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitLocal measures the local stage (Algorithm 3) alone: FitLocal
// over the 8 locations of a 260-tick keyword whose global model was fitted
// once, outside the timer. Each run refills the model's local parameters.
func BenchmarkFitLocal(b *testing.B) {
	truth, err := SyntheticGoogleTrendsKeyword("grammy",
		SyntheticConfig{Locations: 8, Ticks: 260, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := truth.Tensor
	opts := Options{Workers: 1}
	m, err := FitGlobal(x, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := FitLocal(x, m, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlobalFitSequence measures a full single-sequence GlobalFit.
func BenchmarkGlobalFitSequence(b *testing.B) {
	truth, err := SyntheticGoogleTrendsKeyword("grammy",
		SyntheticConfig{Locations: 8, Ticks: 260, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	seq := truth.Tensor.Global(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitSequence(seq, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlobalFitGrowth measures a GlobalFit whose time goes almost all
// to the growth-onset search: the synthetic facebook keyword at 88 ticks,
// where every round scans the onset grid and the MDL gate rejects growth.
func BenchmarkGlobalFitGrowth(b *testing.B) {
	truth, err := SyntheticGoogleTrendsKeyword("facebook",
		SyntheticConfig{Locations: 3, Ticks: 88, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	seq := truth.Tensor.Global(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitSequence(seq, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJacobian compares the cost of one LM Jacobian evaluation under
// the two modes the fitters support: a single analytic forward-sensitivity
// pass (BenchmarkJacobian/analytic) versus the p+1 re-simulations of the
// finite-difference probe loop it replaced (BenchmarkJacobian/fd). The
// workload is the base-parameter lane set {N, β, δ, γ, i0} over a
// grammy-scale window, i.e. exactly the inner loop FitSequence runs
// thousands of times per fit.
func BenchmarkJacobian(b *testing.B) {
	const n = 260
	p := KeywordParams{N: 100, Beta: 0.55, Delta: 0.4, Gamma: 0.6,
		I0: 0.01, TEta: NoGrowth}
	specs := core.BaseSensSpecs()
	np := len(specs)

	b.Run("analytic", func(b *testing.B) {
		out := make([]float64, n)
		jac := make([]float64, n*np)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, jac = core.SimulateWithSensitivities(out, jac, &p, n, nil, -1, specs)
		}
		_ = jac
	})

	b.Run("fd", func(b *testing.B) {
		base := make([]float64, n)
		probe := make([]float64, n)
		jac := make([]float64, n*np)
		steps := []float64{1e-6 * p.N, 1e-7, 1e-7, 1e-7, 1e-7}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			base = core.SimulateInto(base, &p, n, nil, -1)
			for j := 0; j < np; j++ {
				pp := p
				switch specs[j].Param {
				case core.SensN:
					pp.N += steps[j]
				case core.SensBeta:
					pp.Beta += steps[j]
				case core.SensDelta:
					pp.Delta += steps[j]
				case core.SensGamma:
					pp.Gamma += steps[j]
				case core.SensI0:
					pp.I0 += steps[j]
				}
				probe = core.SimulateInto(probe, &pp, n, nil, -1)
				for t := 0; t < n; t++ {
					jac[t*np+j] = (probe[t] - base[t]) / steps[j]
				}
			}
		}
		_ = jac
	})
}

// BenchmarkForecast measures forecasting from a fitted model.
func BenchmarkForecast(b *testing.B) {
	occ := make([]float64, 8)
	for i := range occ {
		occ[i] = 9
	}
	m := &Model{
		Keywords: []string{"k"}, Locations: []string{"WW"}, Ticks: 400,
		Global: []KeywordParams{{N: 100, Beta: 0.5, Delta: 0.45, Gamma: 0.5,
			I0: 0.02, TEta: NoGrowth}},
		Shocks: []Shock{{Keyword: 0, Period: 52, Start: 6, Width: 2, Strength: occ}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForecastGlobal(0, 156)
	}
}

// BenchmarkMDLCost measures the per-candidate MDL evaluation used inside
// shock discovery.
func BenchmarkMDLCost(b *testing.B) {
	truth, err := SyntheticGoogleTrendsKeyword("amazon",
		SyntheticConfig{Locations: 4, Ticks: 200, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := truth.Tensor
	m, err := FitGlobal(x, Options{DisableShocks: true, DisableGrowth: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.TotalCost(x)
	}
}

// BenchmarkRMSE576 measures the evaluation metric itself.
func BenchmarkRMSE576(b *testing.B) {
	a := make([]float64, 576)
	c := make([]float64, 576)
	for i := range a {
		a[i] = float64(i % 53)
		c[i] = float64(i % 47)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.RMSE(a, c)
	}
}

// benchStreamSeries synthesises n ticks of a cheap SIV series with one
// periodic spike, matching the stream maintenance scenarios.
func benchStreamSeries(n int) []float64 {
	p := core.KeywordParams{N: 50, Beta: 0.6, Delta: 0.45, Gamma: 0.4, I0: 0.03,
		TEta: core.NoGrowth}
	shock := core.Shock{Keyword: 0, Period: 52, Start: 10, Width: 2}
	shock.Strength = make([]float64, shock.Occurrences(n))
	for i := range shock.Strength {
		shock.Strength[i] = 7
	}
	m := &core.Model{Keywords: []string{"s"}, Ticks: n,
		Global: []core.KeywordParams{p}, Shocks: []core.Shock{shock}}
	return m.SimulateGlobal(0, n)
}

// streamBenchN is the series length at which BenchmarkStreamAppend
// measures: the tentpole SLO is stated at n=10k ticks.
const streamBenchN = 10_000

// streamBench grows a 10k-tick incremental stream exactly once (seed fit on
// a 300-tick prefix, then one O(tail) append per tick — never a 10k-tick
// batch fit) and snapshots it. Each benchmark invocation restores from the
// snapshot, which only replays the recurrence (O(n), no fitting), so the
// harness can re-run the function without re-paying the growth.
var streamBench struct {
	once   sync.Once
	err    error
	state  core.StreamState
	series []float64
}

func streamBenchStream(b *testing.B) (*core.Stream, []float64) {
	sb := &streamBench
	sb.once.Do(func() {
		sb.series = benchStreamSeries(streamBenchN + 1)
		s := core.NewIncrementalStream(core.FitOptions{DisableGrowth: true},
			26, core.IncrementalConfig{TailWindow: 104, DebtLimit: 1e12})
		if _, sb.err = s.Append(sb.series[:300]...); sb.err != nil {
			return
		}
		for _, v := range sb.series[300:streamBenchN] {
			if _, sb.err = s.Append(v); sb.err != nil {
				return
			}
		}
		sb.state = s.State()
	})
	if sb.err != nil {
		b.Fatal(sb.err)
	}
	return core.RestoreStream(core.FitOptions{DisableGrowth: true}, sb.state), sb.series
}

// BenchmarkStreamAppend measures one incremental single-tick append with
// 10k ticks already absorbed — the tentpole's bounded-time contract. The
// debt limit is out of reach so the measurement isolates the O(tail) path;
// p99-ms is the per-append tail latency the 10ms SLO gates in CI (see
// TestStreamAppendLatencySLO).
func BenchmarkStreamAppend(b *testing.B) {
	s, series := streamBenchStream(b)
	lat := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := s.Append(series[streamBenchN]); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0).Seconds())
	}
	b.StopTimer()
	sort.Float64s(lat)
	b.ReportMetric(lat[len(lat)*99/100]*1e3, "p99-ms")
}

// BenchmarkStreamForecast measures one 13-tick forecast read on the same
// 10k-tick incremental stream: it steps the recurrence on from the
// checkpointed head state, so its cost follows the horizon, not the
// retained window (TestStreamForecastCostFlat gates the allocations).
func BenchmarkStreamForecast(b *testing.B) {
	s, _ := streamBenchStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := s.Forecast(13); len(f) != 13 {
			b.Fatalf("forecast has %d ticks", len(f))
		}
	}
}

// BenchmarkStreamColdFit measures a served stream's first append: the
// 104-tick cold fit of an ingest-like series (SIV dynamics driven by a
// yearly event, 3% noise) through core.Stream at default options, so at
// the default budget of 4 workers, which the fit's concurrent LM starts
// use. servebench's ingest set-up is four such fits.
func BenchmarkStreamColdFit(b *testing.B) {
	seq := yearlyEventSeries(104)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.NewIncrementalStream(core.FitOptions{}, 1_000_000, core.IncrementalConfig{})
		if _, err := s.Append(seq...); err != nil {
			b.Fatal(err)
		}
		if !s.Ready() {
			b.Fatal("stream not fitted by its first append")
		}
	}
}

// yearlyEventSeries synthesises n ticks of SIV dynamics driven by a
// three-tick yearly event (period 52, strength 6), with Gaussian noise at
// 3% of the peak.
func yearlyEventSeries(n int) []float64 {
	eps := make([]float64, n)
	for t := range eps {
		eps[t] = 1
		if t%52 >= 20 && t%52 < 23 {
			eps[t] += 6
		}
	}
	p := core.KeywordParams{N: 100, Beta: 0.55, Delta: 0.475, Gamma: 0.425, I0: 0.01,
		TEta: core.NoGrowth}
	seq := core.Simulate(&p, n, eps, -1)
	noise := 0.03 * stats.Max(seq)
	rng := rand.New(rand.NewSource(1))
	for t := range seq {
		seq[t] = math.Max(seq[t]+noise*rng.NormFloat64(), 0)
	}
	return seq
}

// BenchmarkStreamAppendBatch is the refit-cadence baseline: the same
// single-tick appends under the RefitBatch debt policy, which steps the
// checkpoint per tick and pays a full warm-started refit every RefitEvery
// appends. Kept at a much smaller n so the refit cycle stays
// benchmarkable; the per-op contrast with BenchmarkStreamAppend (amortised
// refit vs O(tail)) is the point.
func BenchmarkStreamAppendBatch(b *testing.B) {
	const n = 640
	series := benchStreamSeries(n + 1)
	s := core.NewStream(core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 4}, 26)
	if _, err := s.Append(series[:n]...); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(series[n]); err != nil {
			b.Fatal(err)
		}
	}
}
