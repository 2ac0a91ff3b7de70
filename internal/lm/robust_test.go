package lm

import (
	"math"
	"strings"
	"testing"
)

// A non-finite starting cost must be reported as an error, not looped on.
func TestFitNonFiniteInitialCost(t *testing.T) {
	f := func(p []float64) []float64 { return []float64{math.Inf(1)} }
	_, err := fit(f, []float64{1}, Options{})
	if err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("Fit with Inf initial residual: err = %v, want non-finite cost error", err)
	}
	g := func(p []float64) []float64 { return []float64{math.Inf(-1), 1} }
	if _, err := fit(g, []float64{1}, Options{}); err == nil {
		t.Fatalf("Fit with -Inf initial residual: want error, got nil")
	}
}

// An objective that blows up to Inf away from the optimum must not stop the
// fit from converging from a finite start: Inf trials are rejected like any
// worse step and Inf-contaminated Jacobian entries are dropped.
func TestFitSurvivesInfRegion(t *testing.T) {
	target := 3.0
	f := func(p []float64) []float64 {
		x := p[0]
		if x > 10 { // simulated overflow region
			return []float64{math.Inf(1)}
		}
		return []float64{x - target}
	}
	res, err := fit(f, []float64{9.9}, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if math.Abs(res.Params[0]-target) > 1e-4 {
		t.Fatalf("Fit converged to %g, want %g", res.Params[0], target)
	}
	if math.IsNaN(res.SSE) || math.IsInf(res.SSE, 0) {
		t.Fatalf("Fit returned non-finite SSE %g", res.SSE)
	}
}

// A residual entry that flips to NaN under perturbation (missing under one
// parameterisation, observed under another) must contribute zero slope, and
// an Inf difference must be dropped rather than poisoning the step.
func TestFitNonFiniteJacobianEntries(t *testing.T) {
	f := func(p []float64) []float64 {
		x := p[0]
		r := []float64{x - 2, 0}
		if x > 5 {
			r[1] = math.Inf(1)
		}
		return r
	}
	res, err := fit(f, []float64{4.999999}, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if math.Abs(res.Params[0]-2) > 1e-3 {
		t.Fatalf("Fit converged to %g, want 2", res.Params[0])
	}
}

func TestSSEInf(t *testing.T) {
	if got := sse([]float64{1, math.Inf(-1), 2}); !math.IsInf(got, 1) {
		t.Fatalf("sse with Inf entry = %g, want +Inf", got)
	}
	if got := sse([]float64{1, math.NaN(), 2}); got != 5 {
		t.Fatalf("sse with NaN (missing) entry = %g, want 5", got)
	}
}
