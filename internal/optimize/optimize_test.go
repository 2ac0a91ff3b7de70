package optimize

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGoldenQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 3.2) * (x - 3.2) }
	x, fx, _ := Golden(nil, f, -10, 10, 1e-9, 0)
	if math.Abs(x-3.2) > 1e-6 {
		t.Fatalf("Golden argmin = %g, want 3.2", x)
	}
	if fx > 1e-10 {
		t.Fatalf("Golden min value = %g", fx)
	}
}

func TestGoldenReversedBounds(t *testing.T) {
	f := func(x float64) float64 { return math.Abs(x - 1) }
	x, _, _ := Golden(nil, f, 5, -5, 1e-9, 0)
	if math.Abs(x-1) > 1e-6 {
		t.Fatalf("Golden with reversed bounds = %g, want 1", x)
	}
}

func TestGoldenRespectsBounds(t *testing.T) {
	// Minimum outside the interval: should return the boundary region.
	f := func(x float64) float64 { return (x - 100) * (x - 100) }
	x, _, _ := Golden(nil, f, 0, 1, 1e-9, 0)
	if x < 0 || x > 1 {
		t.Fatalf("Golden wandered outside bounds: %g", x)
	}
	if math.Abs(x-1) > 1e-3 {
		t.Fatalf("Golden boundary argmin = %g, want ~1", x)
	}
}

func TestGridMin(t *testing.T) {
	f := func(c int) float64 { return float64((c - 7) * (c - 7)) }
	best, fbest, _ := gridMinCtx(nil, f, []int{1, 5, 7, 9})
	if best != 7 || fbest != 0 {
		t.Fatalf("gridMinCtx = (%d,%g), want (7,0)", best, fbest)
	}
	_, fbest, _ = gridMinCtx(nil, f, nil)
	if !math.IsInf(fbest, 1) {
		t.Fatalf("gridMinCtx(empty) fbest = %g, want +Inf", fbest)
	}
}

func TestGridMinTieBreaksEarliest(t *testing.T) {
	f := func(c int) float64 { return 1.0 }
	best, _, _ := gridMinCtx(nil, f, []int{4, 2, 9})
	if best != 4 {
		t.Fatalf("tie should go to first candidate, got %d", best)
	}
}

// A float64 grid is searched by index: the argmin is the index of the
// winning candidate value.
func TestGridMinFloat(t *testing.T) {
	xs := []float64{0.1, 0.4, 0.9}
	f := func(i int) float64 { return math.Abs(xs[i] - 0.5) }
	best, _, _ := gridMinCtx(nil, f, []int{0, 1, 2})
	if xs[best] != 0.4 {
		t.Fatalf("gridMinCtx over float grid = %g, want 0.4", xs[best])
	}
}

func TestRefiningGridExactSmallRange(t *testing.T) {
	f := func(c int) float64 { return float64((c - 13) * (c - 13)) }
	best, fbest, _ := RefiningGrid(nil, f, 0, 20, 50)
	if best != 13 || fbest != 0 {
		t.Fatalf("RefiningGrid = (%d,%g), want (13,0)", best, fbest)
	}
}

func TestRefiningGridCoarseThenFine(t *testing.T) {
	// Smooth objective over a wide range: refine pass should land exactly.
	f := func(c int) float64 { return math.Pow(float64(c-457), 2) }
	best, _, _ := RefiningGrid(nil, f, 0, 1000, 20)
	if best != 457 {
		t.Fatalf("RefiningGrid wide = %d, want 457", best)
	}
}

func TestRefiningGridReversedAndDegenerate(t *testing.T) {
	f := func(c int) float64 { return float64(c) }
	best, _, _ := RefiningGrid(nil, f, 10, 5, 4)
	if best != 5 {
		t.Fatalf("reversed range best = %d, want 5", best)
	}
	best, _, _ = RefiningGrid(nil, f, 3, 3, 0)
	if best != 3 {
		t.Fatalf("single-point range best = %d, want 3", best)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	rosen := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x, fx := NelderMead(rosen, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 5000, Tol: 1e-14})
	if math.Abs(x[0]-1) > 1e-3 || math.Abs(x[1]-1) > 1e-3 {
		t.Fatalf("NelderMead Rosenbrock argmin = %v (f=%g)", x, fx)
	}
}

func TestNelderMeadQuadratic3D(t *testing.T) {
	target := []float64{2, -3, 0.5}
	f := func(x []float64) float64 {
		s := 0.0
		for i := range x {
			d := x[i] - target[i]
			s += d * d
		}
		return s
	}
	x, fx := NelderMead(f, []float64{0, 0, 0}, NelderMeadOptions{})
	for i := range target {
		if math.Abs(x[i]-target[i]) > 1e-3 {
			t.Fatalf("dim %d: got %g want %g (f=%g)", i, x[i], target[i], fx)
		}
	}
}

func TestNelderMeadEmpty(t *testing.T) {
	called := false
	_, fx := NelderMead(func([]float64) float64 { called = true; return 42 }, nil, NelderMeadOptions{})
	if !called || fx != 42 {
		t.Fatalf("empty-dim NelderMead = %g", fx)
	}
}

func TestNelderMeadDoesNotMutateInput(t *testing.T) {
	x0 := []float64{5, 5}
	NelderMead(func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] }, x0, NelderMeadOptions{})
	if x0[0] != 5 || x0[1] != 5 {
		t.Fatalf("input mutated: %v", x0)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp wrong")
	}
}

// Property: Golden never returns a worse point than either bound for convex
// objectives.
func TestGoldenConvexQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := rng.Float64()*20 - 10
		obj := func(x float64) float64 { return (x - c) * (x - c) }
		lo, hi := -15.0, 15.0
		x, fx, _ := Golden(nil, obj, lo, hi, 1e-10, 0)
		return fx <= obj(lo)+1e-12 && fx <= obj(hi)+1e-12 && x >= lo && x <= hi &&
			math.Abs(x-c) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: NelderMead on a random positive-definite quadratic converges to
// the known minimiser.
func TestNelderMeadQuadraticQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + rng.Intn(3)
		target := make([]float64, dim)
		w := make([]float64, dim)
		for i := range target {
			target[i] = rng.Float64()*4 - 2
			w[i] = 0.5 + rng.Float64()*3
		}
		obj := func(x []float64) float64 {
			s := 0.0
			for i := range x {
				d := x[i] - target[i]
				s += w[i] * d * d
			}
			return s
		}
		x, _ := NelderMead(obj, make([]float64, dim), NelderMeadOptions{MaxIter: 4000, Tol: 1e-14})
		for i := range x {
			if math.Abs(x[i]-target[i]) > 1e-2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
