package lm

import (
	"math"
	"testing"
)

// Regression: the forward-difference Jacobian used to probe outside Lower
// when the Upper check flipped the step — with a box narrower than the FD
// step, p[j]+h > hi flips to p[j]-h, which lands below lo and is handed to
// the residual function unclamped. The residual function here asserts the
// promised box on every call; it fails against the pre-fix code.
func TestJacobianProbeRespectsLowerBound(t *testing.T) {
	lo := []float64{1, 0}
	hi := []float64{1 + 1e-9, 10} // param 0 pinned: box far narrower than FD step
	var violations []float64
	f := func(p []float64) []float64 {
		if p[0] < lo[0] || p[0] > hi[0] {
			violations = append(violations, p[0])
		}
		return []float64{(p[0] - 1) * 5, p[1] - 3}
	}
	res, err := fit(f, []float64{1, 7}, Options{Lower: lo, Upper: hi, MaxIter: 20})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if len(violations) > 0 {
		t.Fatalf("residual function called %d times outside [lo, hi]; first offending p[0] = %g",
			len(violations), violations[0])
	}
	if got := res.Params[0]; got < lo[0] || got > hi[0] {
		t.Fatalf("fitted param 0 = %g escaped its box", got)
	}
	if got := res.Params[1]; math.Abs(got-3) > 1e-6 {
		t.Fatalf("fitted param 1 = %g, want 3 (free parameter must still converge)", got)
	}
}

// The flipped probe may violate Lower even when the box is wider than one
// step (p sits within fdStep·|p| of both bounds). The probe must then be
// clamped to Lower — still inside the box — rather than passed through.
func TestJacobianProbeClampedNotSkipped(t *testing.T) {
	// p0 = 1, FD step = 1e-6: forward probe 1+1e-6 exceeds hi = 1+1e-9,
	// flipped probe 1-1e-6 undercuts lo = 1-5e-7 and must clamp to lo.
	lo := []float64{1 - 5e-7}
	hi := []float64{1 + 1e-9}
	probed := map[float64]bool{}
	f := func(p []float64) []float64 {
		if p[0] < lo[0] || p[0] > hi[0] {
			t.Errorf("probe %g outside [%g, %g]", p[0], lo[0], hi[0])
		}
		probed[p[0]] = true
		return []float64{p[0] - 2}
	}
	if _, err := fit(f, []float64{1}, Options{Lower: lo, Upper: hi, MaxIter: 3}); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if !probed[lo[0]] {
		t.Fatalf("clamped probe at lo = %g never evaluated; probes: %v", lo[0], probed)
	}
}

// A pinned parameter (lo == hi) must neither be probed outside the point
// box nor stop the other parameters from converging.
func TestJacobianPinnedParameter(t *testing.T) {
	lo := []float64{2, -10}
	hi := []float64{2, 10}
	f := func(p []float64) []float64 {
		if p[0] != 2 {
			t.Errorf("pinned parameter probed at %g", p[0])
		}
		return []float64{p[1] - p[0]}
	}
	res, err := fit(f, []float64{2, 0}, Options{Lower: lo, Upper: hi})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if math.Abs(res.Params[1]-2) > 1e-6 {
		t.Fatalf("free parameter = %g, want 2", res.Params[1])
	}
}
