package optimize

import (
	"math"
	"testing"
)

// A NaN-returning stretch of the objective must not freeze the bracket:
// NaN comparisons are always false, so an unguarded golden section would
// stop shrinking (or keep a NaN as the "best" value) the first time it
// sampled the bad region.
func TestGoldenNaNRegion(t *testing.T) {
	f := func(x float64) float64 {
		if x < 2 { // degenerate region: simulation failed
			return math.NaN()
		}
		return (x - 3) * (x - 3)
	}
	x, fx, _ := Golden(nil, f, 0, 10, 1e-6, 200)
	if math.IsNaN(fx) {
		t.Fatalf("Golden returned NaN objective at x=%g", x)
	}
	if math.Abs(x-3) > 1e-3 {
		t.Fatalf("Golden found x=%g, want 3", x)
	}
}

// An all-NaN objective degrades to +Inf, never NaN.
func TestGoldenAllNaN(t *testing.T) {
	nan := func(x float64) float64 { return math.NaN() }
	_, fx, _ := Golden(nil, nan, 0, 1, 1e-6, 50)
	if !math.IsInf(fx, 1) {
		t.Fatalf("Golden over all-NaN objective: fx = %g, want +Inf", fx)
	}
}

func TestGridMinNaNCandidates(t *testing.T) {
	f := func(c int) float64 {
		if c == 2 {
			return math.NaN()
		}
		return float64((c - 5) * (c - 5))
	}
	best, fbest, _ := gridMinCtx(nil, f, []int{0, 2, 5, 9})
	if best != 5 || fbest != 0 {
		t.Fatalf("gridMinCtx = (%d, %g), want (5, 0)", best, fbest)
	}
	// NaN first in the candidate list must not win the running minimum.
	best, fbest, _ = gridMinCtx(nil, f, []int{2, 5})
	if best != 5 || math.IsNaN(fbest) {
		t.Fatalf("gridMinCtx with NaN first = (%d, %g), want (5, 0)", best, fbest)
	}
}

func TestGridMinFloatNaN(t *testing.T) {
	xs := []float64{-1, 4, 1}
	f := func(i int) float64 {
		if xs[i] < 0 {
			return math.NaN()
		}
		return xs[i]
	}
	best, fbest, _ := gridMinCtx(nil, f, []int{0, 1, 2})
	if xs[best] != 1 || fbest != 1 {
		t.Fatalf("gridMinCtx over float grid = (%g, %g), want (1, 1)", xs[best], fbest)
	}
}

func TestRefiningGridNaN(t *testing.T) {
	f := func(c int) float64 {
		if c%3 == 0 {
			return math.NaN()
		}
		return math.Abs(float64(c - 50))
	}
	best, fbest, _ := RefiningGrid(nil, f, 0, 100, 16)
	if math.IsNaN(fbest) {
		t.Fatalf("RefiningGrid returned NaN objective")
	}
	if best%3 == 0 {
		t.Fatalf("RefiningGrid picked a NaN candidate %d", best)
	}
}
