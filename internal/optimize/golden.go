// Package optimize provides the derivative-free optimisers used throughout
// the fitting pipeline: golden-section search for 1-D bounded minimisation,
// exhaustive/refining grid search for discrete parameters (shock start
// times, periods, growth onset), and Nelder–Mead simplex descent for small
// dense parameter vectors where Levenberg–Marquardt is not applicable (e.g.
// TBATS smoothing constants).
package optimize

import (
	"context"
	"fmt"
	"math"
)

const invPhi = 0.6180339887498949 // 1/φ

// finiteMin maps a NaN objective value to +Inf. Every comparison against
// NaN is false, so a single NaN evaluation would otherwise freeze a
// golden-section bracket or win a grid tie it never earned; +Inf makes a
// degenerate candidate lose every comparison instead.
func finiteMin(v float64) float64 {
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return v
}

// Golden minimises f over [lo, hi] with golden-section search, returning the
// minimising x and f(x). tol is the absolute interval tolerance; maxIter
// bounds the number of shrink steps (each shrinks the interval by 1/φ).
// ctx (which may be nil for "never cancelled") is checked before every
// shrink step, and once it is done the search stops and returns the best
// point evaluated so far together with an error wrapping ctx.Err(). Each
// step costs one objective evaluation, so cancel-to-stop latency is bounded
// by a single evaluation of f.
func Golden(ctx context.Context, f func(float64) float64, lo, hi, tol float64, maxIter int) (x, fx float64, err error) {
	if hi < lo {
		lo, hi = hi, lo
	}
	if maxIter <= 0 {
		maxIter = 200
	}
	a, b := lo, hi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := finiteMin(f(c)), finiteMin(f(d))
	for i := 0; i < maxIter && (b-a) > tol; i++ {
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				x, fx = c, fc
				if fd < fc {
					x, fx = d, fd
				}
				return x, fx, fmt.Errorf("optimize: golden stopped: %w", cerr)
			}
		}
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = finiteMin(f(c))
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = finiteMin(f(d))
		}
	}
	x = (a + b) / 2
	fx = finiteMin(f(x))
	// Return the best point actually evaluated, not just the midpoint.
	if fc < fx {
		x, fx = c, fc
	}
	if fd < fx {
		x, fx = d, fd
	}
	return x, fx, nil
}

// RefiningGrid minimises f over the integer range [lo, hi] by a coarse pass
// of at most width points followed by an exact scan of the winning
// neighbourhood. It is exact when hi-lo+1 <= width and otherwise trades a
// small risk of missing a narrow optimum for O(width + stride) evaluations.
// ctx (which may be nil) is checked before every candidate evaluation, and
// once it is done the scan stops and returns the best candidate evaluated
// so far together with an error wrapping ctx.Err().
func RefiningGrid(ctx context.Context, f func(int) float64, lo, hi, width int) (best int, fbest float64, err error) {
	if hi < lo {
		lo, hi = hi, lo
	}
	if width < 2 {
		width = 2
	}
	span := hi - lo + 1
	stride := span / width
	if stride < 1 {
		stride = 1
	}
	var coarse []int
	for c := lo; c <= hi; c += stride {
		coarse = append(coarse, c)
	}
	if coarse[len(coarse)-1] != hi {
		coarse = append(coarse, hi)
	}
	center, fcenter, err := gridMinCtx(ctx, f, coarse)
	if err != nil {
		return center, fcenter, err
	}
	flo, fhi := center-stride, center+stride
	if flo < lo {
		flo = lo
	}
	if fhi > hi {
		fhi = hi
	}
	var fine []int
	for c := flo; c <= fhi; c++ {
		fine = append(fine, c)
	}
	return gridMinCtx(ctx, f, fine)
}

// gridMinCtx evaluates f at each candidate and returns the argmin and
// minimum. Ties resolve to the earliest candidate, making searches
// deterministic. ctx (which may be nil) is checked before every candidate;
// the result is the best of the candidates evaluated before cancellation,
// and fbest is +Inf when none was (an empty or pre-cancelled set).
func gridMinCtx(ctx context.Context, f func(int) float64, candidates []int) (best int, fbest float64, err error) {
	fbest = math.Inf(1)
	for _, c := range candidates {
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				return best, fbest, fmt.Errorf("optimize: grid stopped: %w", cerr)
			}
		}
		if v := finiteMin(f(c)); v < fbest {
			best, fbest = c, v
		}
	}
	return best, fbest, nil
}
