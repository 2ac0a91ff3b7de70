package optimize

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestGoldenCtxCancelStopsWithinOneEval(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	f := func(x float64) float64 {
		evals++
		if evals == 5 {
			cancel()
		}
		return (x - 2) * (x - 2)
	}
	x, fx, err := Golden(ctx, f, 0, 100, 1e-12, 500)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// ctx is checked before every shrink step; at most the in-flight
	// evaluation completes after cancel fires.
	if evals > 6 {
		t.Fatalf("objective evaluated %d times after cancel at eval 5", evals)
	}
	// The best point seen so far is still returned, inside the bracket.
	if x < 0 || x > 100 || math.IsInf(fx, 0) || math.IsNaN(fx) {
		t.Fatalf("cancelled Golden = (%g, %g)", x, fx)
	}
}

func TestGoldenCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	evals := 0
	f := func(x float64) float64 { evals++; return x * x }
	_, _, err := Golden(ctx, f, -4, 4, 1e-9, 100)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Only the two bracket seeds run before the first check.
	if evals > 2 {
		t.Fatalf("objective evaluated %d times after pre-cancel", evals)
	}
}

func TestRefiningGridCtxCancelStopsScan(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	f := func(c int) float64 {
		evals++
		if evals == 4 {
			cancel()
		}
		return float64((c - 500) * (c - 500))
	}
	_, _, err := RefiningGrid(ctx, f, 0, 1000, 50)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The check runs before every candidate: the eval that fired cancel is
	// the last one.
	if evals > 4 {
		t.Fatalf("grid evaluated %d candidates after cancel at eval 4", evals)
	}
}

func TestGridMinCtxPreCancelledReportsInf(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, fbest, err := gridMinCtx(ctx, func(c int) float64 { return 0 }, []int{1, 2, 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !math.IsInf(fbest, 1) {
		t.Fatalf("fbest = %g with no candidates evaluated, want +Inf", fbest)
	}
}
