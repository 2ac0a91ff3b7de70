package lm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveSPDIdentity(t *testing.T) {
	a := []float64{1, 0, 0, 1}
	b := []float64{3, -7}
	x, err := solveSPD(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]+7) > 1e-12 {
		t.Fatalf("solveSPD identity = %v", x)
	}
}

func TestSolveSPDKnownSystem(t *testing.T) {
	// A = [[4,2],[2,3]], x = [1,2] => b = [8, 8].
	a := []float64{4, 2, 2, 3}
	b := []float64{8, 8}
	x, err := solveSPD(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-2) > 1e-10 {
		t.Fatalf("solveSPD = %v, want [1 2]", x)
	}
}

func TestSolveSPDRejectsIndefinite(t *testing.T) {
	a := []float64{1, 2, 2, 1} // eigenvalues 3, -1
	if _, err := solveSPD(a, []float64{1, 1}, 2); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestFitLinearRegression(t *testing.T) {
	// y = 2x + 1 with exact data: LM should recover (2, 1).
	xs := []float64{0, 1, 2, 3, 4, 5}
	f := func(p []float64) []float64 {
		r := make([]float64, len(xs))
		for i, x := range xs {
			r[i] = (p[0]*x + p[1]) - (2*x + 1)
		}
		return r
	}
	res, err := fit(f, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Params[0]-2) > 1e-5 || math.Abs(res.Params[1]-1) > 1e-5 {
		t.Fatalf("params = %v, want [2 1]", res.Params)
	}
	if res.SSE > 1e-9 {
		t.Fatalf("SSE = %g", res.SSE)
	}
}

func TestFitExponentialDecay(t *testing.T) {
	// y = 3·exp(-0.7 t): genuinely non-linear.
	n := 40
	obs := make([]float64, n)
	for i := range obs {
		obs[i] = 3 * math.Exp(-0.7*float64(i)*0.25)
	}
	f := func(p []float64) []float64 {
		r := make([]float64, n)
		for i := range r {
			r[i] = p[0]*math.Exp(-p[1]*float64(i)*0.25) - obs[i]
		}
		return r
	}
	res, err := fit(f, []float64{1, 0.1}, Options{MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Params[0]-3) > 1e-4 || math.Abs(res.Params[1]-0.7) > 1e-4 {
		t.Fatalf("params = %v, want [3 0.7] (SSE %g)", res.Params, res.SSE)
	}
}

func TestFitRespectsBounds(t *testing.T) {
	// Unconstrained optimum at p=5, but bound at 2.
	f := func(p []float64) []float64 { return []float64{p[0] - 5} }
	res, err := fit(f, []float64{0}, Options{Lower: []float64{0}, Upper: []float64{2}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Params[0]-2) > 1e-9 {
		t.Fatalf("bounded param = %g, want 2", res.Params[0])
	}
}

func TestFitStartOutsideBoundsIsClamped(t *testing.T) {
	f := func(p []float64) []float64 { return []float64{p[0] - 0.5} }
	res, err := fit(f, []float64{10}, Options{Lower: []float64{0}, Upper: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Params[0] < 0 || res.Params[0] > 1 {
		t.Fatalf("param escaped bounds: %g", res.Params[0])
	}
}

func TestFitHandlesNaNResiduals(t *testing.T) {
	// Missing observations marked NaN must not poison the fit.
	f := func(p []float64) []float64 {
		return []float64{p[0] - 4, math.NaN(), 2 * (p[0] - 4)}
	}
	res, err := fit(f, []float64{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Params[0]-4) > 1e-6 {
		t.Fatalf("param with NaN = %g, want 4", res.Params[0])
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := fit(func(p []float64) []float64 { return []float64{0} }, nil, Options{}); err == nil {
		t.Fatal("empty params accepted")
	}
	if _, err := fit(func(p []float64) []float64 { return nil }, []float64{1}, Options{}); err == nil {
		t.Fatal("empty residuals accepted")
	}
	if _, err := fit(func(p []float64) []float64 { return []float64{0} }, []float64{1},
		Options{Lower: []float64{0, 0}}); err == nil {
		t.Fatal("bound length mismatch accepted")
	}
}

func TestFitResidualLengthChangeDetected(t *testing.T) {
	call := 0
	f := func(p []float64) []float64 {
		call++
		if call > 1 {
			return []float64{p[0], p[0]}
		}
		return []float64{p[0] - 1}
	}
	if _, err := fit(f, []float64{0}, Options{}); err == nil {
		t.Fatal("length change not detected")
	}
}

func TestFitDoesNotMutateP0(t *testing.T) {
	p0 := []float64{1, 2}
	f := func(p []float64) []float64 { return []float64{p[0] - 3, p[1] - 4} }
	if _, err := fit(f, p0, Options{}); err != nil {
		t.Fatal(err)
	}
	if p0[0] != 1 || p0[1] != 2 {
		t.Fatalf("p0 mutated: %v", p0)
	}
}

func TestFitSineFrequency(t *testing.T) {
	// Fit amplitude and phase of a sinusoid (frequency known) — a smooth
	// non-linear problem resembling seasonal fitting.
	n := 100
	obs := make([]float64, n)
	for i := range obs {
		obs[i] = 2.5 * math.Sin(0.2*float64(i)+0.8)
	}
	f := func(p []float64) []float64 {
		r := make([]float64, n)
		for i := range r {
			r[i] = p[0]*math.Sin(0.2*float64(i)+p[1]) - obs[i]
		}
		return r
	}
	res, err := fit(f, []float64{1, 0.5}, Options{MaxIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Params[0]-2.5) > 1e-3 || math.Abs(res.Params[1]-0.8) > 1e-3 {
		t.Fatalf("sine fit params = %v", res.Params)
	}
}

// Property: on random overdetermined linear systems LM reaches the
// least-squares optimum (checked against the normal-equations solution).
func TestFitLinearSystemQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, dim := 12+rng.Intn(20), 2+rng.Intn(2)
		A := make([][]float64, m)
		y := make([]float64, m)
		truth := make([]float64, dim)
		for j := range truth {
			truth[j] = rng.NormFloat64() * 3
		}
		for i := range A {
			A[i] = make([]float64, dim)
			for j := range A[i] {
				A[i][j] = rng.NormFloat64()
			}
			for j := range A[i] {
				y[i] += A[i][j] * truth[j]
			}
		}
		resid := func(p []float64) []float64 {
			r := make([]float64, m)
			for i := range r {
				dot := 0.0
				for j := range p {
					dot += A[i][j] * p[j]
				}
				r[i] = dot - y[i]
			}
			return r
		}
		res, err := fit(resid, make([]float64, dim), Options{MaxIter: 200})
		if err != nil {
			return false
		}
		return res.SSE < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the final SSE never exceeds the starting SSE.
func TestFitNeverWorsensQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := rng.NormFloat64() * 5
		obj := func(p []float64) []float64 {
			return []float64{math.Exp(p[0]*0.1) - c, p[0] * 0.3}
		}
		start := []float64{rng.NormFloat64() * 4}
		startSSE := 0.0
		for _, v := range obj(start) {
			startSSE += v * v
		}
		res, err := fit(obj, start, Options{MaxIter: 50})
		if err != nil {
			return false
		}
		return res.SSE <= startSSE+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
