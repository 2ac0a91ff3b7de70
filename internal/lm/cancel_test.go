package lm

import (
	"context"
	"errors"
	"math"
	"testing"
)

// rosenResiduals is a deliberately slow-converging objective so cancellation
// tests have many outer iterations to interrupt.
func rosenResiduals(p []float64) []float64 {
	return []float64{10 * (p[1] - p[0]*p[0]), 1 - p[0]}
}

func TestFitPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	evals := 0
	f := func(p []float64) []float64 {
		evals++
		return rosenResiduals(p)
	}
	res, err := Fit(f, []float64{-1.2, 1}, Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Iterations != 0 {
		t.Fatalf("iterations = %d, want 0", res.Iterations)
	}
	// Only the initial residual evaluation may run before the first check.
	if evals > 1 {
		t.Fatalf("objective evaluated %d times after pre-cancel", evals)
	}
	// The best-so-far parameters are still reported (the clamped start).
	if len(res.Params) != 2 || res.Params[0] != -1.2 || res.Params[1] != 1 {
		t.Fatalf("params = %v, want the starting point", res.Params)
	}
}

func TestFitCancelMidRunStopsWithinOneIteration(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	f := func(p []float64) []float64 {
		evals++
		if evals == 10 {
			cancel() // fires mid-iteration; Fit notices at the next loop top
		}
		return rosenResiduals(p)
	}
	p0 := []float64{-1.2, 1}
	res, err := Fit(f, p0, Options{Ctx: ctx, MaxIter: 10000, Tol: 0})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// One iteration costs at most dim Jacobian evals plus the damped trial
	// steps; stopping "within one iteration" of eval 10 leaves evals far
	// below what 10000 free iterations would spend.
	if evals > 60 {
		t.Fatalf("objective evaluated %d times after cancel", evals)
	}
	if res.Iterations >= 10000 {
		t.Fatalf("ran to MaxIter (%d iterations) despite cancel", res.Iterations)
	}
	for _, v := range res.Params {
		if math.IsNaN(v) {
			t.Fatalf("cancelled fit returned NaN params: %v", res.Params)
		}
	}
	// The cancelled run hands back its best-so-far point, not the start: a
	// finite SSE below the start's, at params that moved off it.
	if math.IsInf(res.SSE, 0) || math.IsNaN(res.SSE) {
		t.Fatalf("cancelled fit discarded its best-so-far SSE (got %v)", res.SSE)
	}
	if res.Params[0] == p0[0] && res.Params[1] == p0[1] {
		t.Fatal("cancelled fit returned the starting point instead of its best params")
	}
	if start := sse(rosenResiduals(p0)); res.SSE >= start {
		t.Fatalf("best-so-far SSE %v not better than the start's %v", res.SSE, start)
	}
}

func TestFitNilContextUnaffected(t *testing.T) {
	res, err := Fit(rosenResiduals, []float64{-1.2, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Params[0]-1) > 1e-4 || math.Abs(res.Params[1]-1) > 1e-4 {
		t.Fatalf("params = %v, want [1 1]", res.Params)
	}
}
