package lm

import (
	"math"
	"testing"
)

// Problems with exactly representable analytic Jacobians, so the analytic
// path can be checked against both FD and closed-form expectations.

// expDecay: r_t = a·exp(-b·t·0.2) - obs_t over 30 ticks.
func expDecayObs() []float64 {
	obs := make([]float64, 30)
	for t := range obs {
		obs[t] = 2.0*math.Exp(-0.5*float64(t)*0.2) + 1e-4*math.Sin(float64(t)*7)
	}
	return obs
}

func expDecayResid(obs []float64) func(p []float64) []float64 {
	return func(p []float64) []float64 {
		r := make([]float64, len(obs))
		for t := range r {
			r[t] = p[0]*math.Exp(-p[1]*float64(t)*0.2) - obs[t]
		}
		return r
	}
}

func expDecayJac(obs []float64) JacobianFunc {
	return func(jac, p []float64) {
		for t := range obs {
			e := math.Exp(-p[1] * float64(t) * 0.2)
			jac[t*2+0] = e
			jac[t*2+1] = -p[0] * float64(t) * 0.2 * e
		}
	}
}

// TestFitAnalyticJacobianMatchesFD pins that the analytic path lands on the
// same optimum as FD (identical tolerances, fresh starts) and uses exactly
// one residual evaluation per iteration beyond the trials — no probe calls.
func TestFitAnalyticJacobianMatchesFD(t *testing.T) {
	obs := expDecayObs()
	start := []float64{1, 0.1}

	fd, err := fit(expDecayResid(obs), start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	probeEvals := 0
	counting := func(p []float64) []float64 {
		probeEvals++
		return expDecayResid(obs)(p)
	}
	an, err := fit(counting, start, Options{Jacobian: expDecayJac(obs)})
	if err != nil {
		t.Fatal(err)
	}
	if !an.Converged {
		t.Fatalf("analytic path did not converge: %+v", an)
	}
	for i := range fd.Params {
		if d := math.Abs(an.Params[i] - fd.Params[i]); d > 1e-6 {
			t.Fatalf("param %d: analytic %v vs FD %v", i, an.Params[i], fd.Params[i])
		}
	}
	// Analytic evaluations: 1 initial + per iteration only the damped
	// trials (≥1 each); FD would add dim=2 probes per iteration on top.
	// The generous bound still fails if probes sneak back in.
	if max := 1 + 3*an.Iterations; probeEvals > max {
		t.Fatalf("analytic path made %d residual evals over %d iterations (max %d): FD probes leaked in",
			probeEvals, an.Iterations, max)
	}
}

// TestFitAnalyticJacobianRespectsMissingRows pins the sanitisation sweep:
// NaN residual rows must not contribute to the normal equations, matching
// the FD path's zero-column behaviour, even when the JacobianFunc fills
// those rows with garbage.
func TestFitAnalyticJacobianRespectsMissingRows(t *testing.T) {
	obs := expDecayObs()
	obs[3] = math.NaN()
	obs[17] = math.NaN()
	resid := expDecayResid(obs) // NaN obs → NaN residual rows
	jac := func(j, p []float64) {
		expDecayJac(obs)(j, p)
		j[3*2+0], j[3*2+1] = math.Inf(1), -7    // garbage on missing rows:
		j[17*2+0], j[17*2+1] = math.NaN(), 1e30 // the driver must zero them
	}
	fd, err := fit(resid, []float64{1, 0.1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := fit(resid, []float64{1, 0.1}, Options{Jacobian: jac})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fd.Params {
		if d := math.Abs(an.Params[i] - fd.Params[i]); d > 1e-6 {
			t.Fatalf("param %d: analytic %v vs FD %v", i, an.Params[i], fd.Params[i])
		}
	}
}

// TestFitSanitisesNonFiniteJacobian: non-finite entries on live rows
// (overflowed sensitivities) are zeroed rather than poisoning JᵀJ — the fit
// still finishes with finite parameters and cost.
func TestFitSanitisesNonFiniteJacobian(t *testing.T) {
	obs := expDecayObs()
	jac := func(j, p []float64) {
		expDecayJac(obs)(j, p)
		j[5*2+1] = math.Inf(1) // live row, exploded entry
		j[9*2+0] = math.NaN()
	}
	res, err := fit(expDecayResid(obs), []float64{1, 0.1}, Options{Jacobian: jac})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Params {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("param %d non-finite: %v", i, v)
		}
	}
	if math.IsNaN(res.SSE) || math.IsInf(res.SSE, 0) {
		t.Fatalf("SSE non-finite: %v", res.SSE)
	}
}

// TestFitIntoAnalyticMatchesFit pins that the buffer-reusing driver takes
// the identical analytic search path.
func TestFitIntoAnalyticMatchesFit(t *testing.T) {
	obs := expDecayObs()
	opts := Options{Jacobian: expDecayJac(obs)}
	plain, err := fit(expDecayResid(obs), []float64{1, 0.1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	into, err := FitInto(func(dst, p []float64) []float64 {
		if cap(dst) < len(obs) {
			dst = make([]float64, len(obs))
		}
		dst = dst[:len(obs)]
		for t := range dst {
			dst[t] = p[0]*math.Exp(-p[1]*float64(t)*0.2) - obs[t]
		}
		return dst
	}, []float64{1, 0.1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.SSE != into.SSE || plain.Iterations != into.Iterations {
		t.Fatalf("FitInto diverged: %+v vs %+v", into, plain)
	}
	for i := range plain.Params {
		if plain.Params[i] != into.Params[i] {
			t.Fatalf("param %d: %x vs %x", i, into.Params[i], plain.Params[i])
		}
	}
}

// TestConvergedVsStalled pins the split: a noise-floored problem converges
// by tolerance; a noiseless one walks into the exact minimum and stalls
// (no improving step at maxLambda). Neither may report the other's flag.
func TestConvergedVsStalled(t *testing.T) {
	noisy, err := fit(expDecayResid(expDecayObs()), []float64{1, 0.1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !noisy.Converged || noisy.Stalled {
		t.Fatalf("noisy fit: converged=%v stalled=%v, want converged only",
			noisy.Converged, noisy.Stalled)
	}

	clean := make([]float64, 30)
	for i := range clean {
		clean[i] = 2.0 * math.Exp(-0.5*float64(i)*0.2)
	}
	exact, err := fit(expDecayResid(clean), []float64{2, 0.5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Converged || !exact.Stalled {
		t.Fatalf("exact-minimum fit: converged=%v stalled=%v, want stalled only",
			exact.Converged, exact.Stalled)
	}
}
