package lm_test

import (
	"fmt"
	"math"

	"dspot/internal/lm"
)

// Fit an exponential decay y = a·exp(-b·t) to noisy observations. (On a
// noiseless problem LM walks into the exact minimum — every step improves
// by orders of magnitude until none improves at all — and reports Stalled
// rather than Converged; a noise floor is what makes the relative-tolerance
// test meaningful.)
func ExampleFitInto() {
	obs := make([]float64, 30)
	for t := range obs {
		obs[t] = 2.0*math.Exp(-0.5*float64(t)*0.2) + 1e-4*math.Sin(float64(t)*7)
	}
	resid := func(dst, p []float64) []float64 {
		r := dst
		if cap(r) < len(obs) {
			r = make([]float64, len(obs))
		}
		r = r[:len(obs)]
		for t := range r {
			r[t] = p[0]*math.Exp(-p[1]*float64(t)*0.2) - obs[t]
		}
		return r
	}
	res, err := lm.FitInto(resid, []float64{1, 0.1}, lm.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("a=%.3f b=%.3f converged=%v\n", res.Params[0], res.Params[1], res.Converged)
	// Output:
	// a=2.000 b=0.500 converged=true
}
