package dspot

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"

	"dspot/internal/core"
	"dspot/internal/datagen"
	"dspot/internal/engine"
	"dspot/internal/tensor"
)

// Golden end-to-end pin of FitSequence on a fixed synthetic world. The
// expected values were re-captured (deliberately — see DESIGN.md §11) when
// the fitters switched from finite-difference to analytic Jacobians with
// two-phase multi-start screening: the LM trajectories legitimately moved,
// by ~1e-4 relative in every fitted field, while shock shape, scale, and
// growth verdict stayed identical. Every field is compared bit-for-bit: any
// *unintentional* change that reorders a float accumulation on the fitting
// path trips this test.
//
// If this test fails after an *intentional* algorithmic change (new search
// stage, different bracket, changed MDL costs), re-capture the constants by
// printing the fields with %x — do not loosen the comparison to a
// tolerance, or the next accidental drift will hide under it.
func TestFitSequenceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full FitSequence run")
	}
	truth, err := SyntheticGoogleTrendsKeyword("grammy",
		SyntheticConfig{Locations: 8, Ticks: 260, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewFitTrace()
	m, err := FitSequence(truth.Tensor.Global(0), Options{Progress: tr.Hook()})
	if err != nil {
		t.Fatal(err)
	}

	// The analytic-Jacobian fit must never stall on the golden scenario: a
	// stall (damping driven to MaxLambda without an improving step) means LM
	// predicted descent along a direction where the objective refused to
	// move, which is exactly how a wrong Jacobian presents. Empirically the
	// analytic path runs every synthetic keyword stall-free while the FD
	// path stalls on 5 of 8 — see TestAnalyticJacobianStallFree.
	if rep := tr.Report(); rep.LMStalls != 0 {
		t.Errorf("analytic fit reported %d stalled LM runs over %d iterations, want 0",
			rep.LMStalls, rep.LMIterations)
	}

	p := m.Global[0]
	pin := func(name string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %x (%g), want %x (%g)", name, got, got, want, want)
		}
	}
	pin("N", p.N, 0x1.9168581d78295p+05)
	pin("Beta", p.Beta, 0x1.44dea0b40ba48p-01)
	pin("Delta", p.Delta, 0x1.23801a4f7c09p-01)
	pin("Gamma", p.Gamma, 0x1.0058eb8faf7dep+00)
	pin("I0", p.I0, 0x1.905ff9d14433p-05)
	pin("Eta0", p.Eta0, 0x0p+00)
	if p.TEta != NoGrowth {
		t.Errorf("TEta = %d, want NoGrowth", p.TEta)
	}
	pin("Scale", m.Scale[0], 0x1.4ec21e1d38817p+05)

	if len(m.Shocks) != 1 {
		t.Fatalf("got %d shocks, want 1", len(m.Shocks))
	}
	s := m.Shocks[0]
	if s.Period != 52 || s.Start != 4 || s.Width != 4 {
		t.Fatalf("shock shape P=%d S=%d W=%d, want P=52 S=4 W=4", s.Period, s.Start, s.Width)
	}
	wantStr := []float64{
		0x1.c265e8d009dfp-01,
		0x1.42f85bac9ada8p+02,
		0x1.44eb83d2e2aa8p+02,
		0x1.42d7ac44ab046p+02,
		0x1.430dc2275e069p+02,
	}
	if len(s.Strength) != len(wantStr) {
		t.Fatalf("got %d occurrence strengths, want %d", len(s.Strength), len(wantStr))
	}
	for i, want := range wantStr {
		pin(fmt.Sprintf("Strength[%d]", i), s.Strength[i], want)
	}

	// Cross-check the engine subsystem against the direct core path: the
	// same global sequence fitted through the "dspot" ModelEngine must be
	// bit-identical in every pinned field. The engine wrapper is required to
	// be a pure view over the core — any numeric divergence here means the
	// adapter re-entered the fit through a different code path.
	seq := truth.Tensor.Global(0)
	x := tensor.New([]string{"seq"}, []string{"all"}, len(seq))
	for tt, v := range seq {
		x.Set(0, 0, tt, v)
	}
	e, err := engine.Lookup(engine.Default)
	if err != nil {
		t.Fatal(err)
	}
	em, err := e.Fit(x, engine.FitOptions{GlobalOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	cm := em.(*engine.DspotModel).M
	ep := cm.Global[0]
	pin("engine N", ep.N, p.N)
	pin("engine Beta", ep.Beta, p.Beta)
	pin("engine Delta", ep.Delta, p.Delta)
	pin("engine Gamma", ep.Gamma, p.Gamma)
	pin("engine I0", ep.I0, p.I0)
	pin("engine Eta0", ep.Eta0, p.Eta0)
	pin("engine Scale", cm.Scale[0], m.Scale[0])
	if len(cm.Shocks) != len(m.Shocks) {
		t.Fatalf("engine path found %d shocks, want %d", len(cm.Shocks), len(m.Shocks))
	}
	es := cm.Shocks[0]
	if es.Period != s.Period || es.Start != s.Start || es.Width != s.Width {
		t.Fatalf("engine shock shape P=%d S=%d W=%d, want P=%d S=%d W=%d",
			es.Period, es.Start, es.Width, s.Period, s.Start, s.Width)
	}
	for i, want := range s.Strength {
		pin(fmt.Sprintf("engine Strength[%d]", i), es.Strength[i], want)
	}
}

// TestAnalyticJacobianStallFree pins the sharpest behavioural difference the
// analytic-sensitivity switch bought: LM never stalls with exact gradients on
// the synthetic scenarios, while the finite-difference path — whose probe
// step crosses the simulator's clamp/renormalisation subgradient kinks —
// stalls repeatedly (measured: 8 stalled runs on "harry potter", 5 on
// "grammy", stalls on 5 of the 8 keywords). A stall is LM driving damping to
// MaxLambda without finding an improving step: the model predicted descent
// where the objective would not move, i.e. the Jacobian disagreed with the
// function. If this test starts failing, the analytic recurrence in
// internal/core/sensitivity.go has drifted from Simulate — run the
// FD-vs-analytic agreement tests to localise the broken term.
func TestAnalyticJacobianStallFree(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full FitSequence runs")
	}
	// A spread of dynamics: "grammy" (the golden scenario, strongly
	// periodic), "harry potter" (the FD path's worst stall case), and
	// "olympics" (the heaviest fit, ~21k LM iterations).
	for _, kw := range []string{"grammy", "harry potter", "olympics"} {
		truth, err := SyntheticGoogleTrendsKeyword(kw,
			SyntheticConfig{Locations: 8, Ticks: 260, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		tr := NewFitTrace()
		if _, err := FitSequence(truth.Tensor.Global(0), Options{Progress: tr.Hook()}); err != nil {
			t.Fatalf("%s: %v", kw, err)
		}
		rep := tr.Report()
		if rep.LMIterations == 0 {
			t.Errorf("%s: trace saw no LM iterations; stall assertion is vacuous", kw)
		}
		if rep.LMStalls != 0 {
			t.Errorf("%s: %d stalled LM runs over %d iterations, want 0",
				kw, rep.LMStalls, rep.LMIterations)
		}
	}
}

// TestFitGlobalSequenceDigestGolden pins, bit for bit, the global fits of
// series whose residual noise offers the shock search short periods with
// many occurrences: BenchmarkStreamColdFit's 104-tick yearly-event series,
// ebola and harry potter at 576 ticks, and every keyword of a few
// tensors shaped like servebench's fit-jobs deck (48–88 ticks, 2–3
// locations). Each case hashes the JSON encoding of every keyword's
// FitGlobalSequence result (parameters, shocks, scale and cost); encoding/json
// writes each float64 in its shortest round-tripping form, so the digest
// moves with any bit of the fit. A change to the shock search that only
// drops candidates which never win must leave every digest as it is.
func TestFitGlobalSequenceDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("about 25 global fits, two of them at 576 ticks")
	}
	keyword := func(name string) *tensor.Tensor {
		truth, err := SyntheticGoogleTrendsKeyword(name,
			SyntheticConfig{Locations: 3, Ticks: 576, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return truth.Tensor
	}
	yearly := tensor.New([]string{"yearly"}, []string{"all"}, 104)
	for tt, v := range yearlyEventSeries(104) {
		yearly.Set(0, 0, tt, v)
	}
	for _, tc := range []struct {
		name string
		x    *tensor.Tensor
		want uint64
	}{
		{"yearly-event/104", yearly, 0xbdf8964168b8d71c},
		{"ebola/576", keyword("ebola"), 0x29df4bfb6c32fc40},
		{"harry-potter/576", keyword("harry potter"), 0xa27a06e3a872628a},
		{"googletrends/78x2/seed1", datagen.GoogleTrends(datagen.Config{Locations: 2, Ticks: 78, Seed: 1}).Tensor, 0xf1d9515b1e54aa15},
		{"googletrends/52x3/seed4", datagen.GoogleTrends(datagen.Config{Locations: 3, Ticks: 52, Seed: 4}).Tensor, 0x3fcd83ade8a75f02},
		{"twitter/64x3/seed1", datagen.Twitter(6, datagen.Config{Locations: 3, Ticks: 64, Seed: 1}).Tensor, 0x4dc766b7cbefdf54},
		{"memetracker/88x2/seed4", datagen.MemeTracker(6, datagen.Config{Locations: 2, Ticks: 88, Seed: 4}).Tensor, 0xf5cafb2d4de78329},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := fnv.New64a()
			for k := 0; k < tc.x.D(); k++ {
				res, err := core.FitGlobalSequence(tc.x.Global(k), k, core.FitOptions{})
				if err != nil {
					t.Fatalf("keyword %s: %v", tc.x.Keywords[k], err)
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatalf("keyword %s: %v", tc.x.Keywords[k], err)
				}
				h.Write(b)
			}
			if got := h.Sum64(); got != tc.want {
				t.Errorf("fits hash to %#x, want %#x", got, tc.want)
			}
		})
	}
}
