package lm

import "testing"

// rosenbrockInto is a buffer-honouring residual function for the Rosenbrock
// valley, whose curved floor keeps LM iterating for dozens of steps — long
// enough to expose any per-iteration allocation.
func rosenbrockInto(dst, p []float64) []float64 {
	if cap(dst) < 2 {
		dst = make([]float64, 2)
	}
	r := dst[:2]
	r[0] = 10 * (p[1] - p[0]*p[0])
	r[1] = 1 - p[0]
	return r
}

// fit runs FitInto over a residual function that allocates its result on
// every call, the shape most of these tests state their problems in.
func fit(f func(p []float64) []float64, p0 []float64, opts Options) (Result, error) {
	return FitInto(func(_, p []float64) []float64 { return f(p) }, p0, opts)
}

// FitInto must walk exactly the same path whether or not the residual
// function writes into the buffers it is handed: the buffer plumbing is a
// memory optimisation, not a different algorithm.
func TestFitIntoMatchesFit(t *testing.T) {
	opts := Options{MaxIter: 200, Lower: []float64{-5, -5}, Upper: []float64{5, 5}}
	p0 := []float64{-1.2, 1}
	a, errA := fit(func(p []float64) []float64 {
		return rosenbrockInto(nil, p)
	}, p0, opts)
	b, errB := FitInto(rosenbrockInto, p0, opts)
	if errA != nil || errB != nil {
		t.Fatalf("errors: %v, %v", errA, errB)
	}
	if a.SSE != b.SSE || a.Iterations != b.Iterations || a.Converged != b.Converged {
		t.Fatalf("allocating %+v and buffered %+v diverged", a, b)
	}
	for i := range a.Params {
		if a.Params[i] != b.Params[i] {
			t.Fatalf("param %d: %v (allocating) != %v (buffered)", i, a.Params[i], b.Params[i])
		}
	}
}

// The allocation gate of the tentpole: one FitInto run allocates a fixed
// amount regardless of how many iterations it performs, i.e. the lambda
// loop and the Jacobian probes allocate nothing. Measured by comparing a
// 2-iteration run against a long run — with any per-iteration allocation
// the long run would cost strictly more.
func TestFitIntoNoPerIterationAllocs(t *testing.T) {
	p0 := []float64{-1.2, 1}
	run := func(maxIter int) (allocs float64, iters int) {
		res, err := FitInto(rosenbrockInto, p0, Options{MaxIter: maxIter})
		if err != nil {
			t.Fatalf("FitInto: %v", err)
		}
		iters = res.Iterations
		allocs = testing.AllocsPerRun(20, func() {
			if _, err := FitInto(rosenbrockInto, p0, Options{MaxIter: maxIter}); err != nil {
				t.Errorf("FitInto: %v", err)
			}
		})
		return allocs, iters
	}
	shortAllocs, shortIters := run(2)
	longAllocs, longIters := run(60)
	if longIters <= shortIters {
		t.Fatalf("test needs a long run (%d iters) to out-iterate the short one (%d)",
			longIters, shortIters)
	}
	if longAllocs > shortAllocs {
		t.Fatalf("per-iteration allocations detected: %d iters → %.0f allocs, %d iters → %.0f allocs",
			shortIters, shortAllocs, longIters, longAllocs)
	}
}
