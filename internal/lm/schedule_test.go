package lm

import (
	"context"
	"math"
	"testing"
)

// expDecayInto is the residual function of a noiseless exponential decay
// y = 2·exp(−0.1·t) over 30 ticks; calls counts its evaluations.
func expDecayInto(calls *int) ResidualIntoFunc {
	return func(dst, p []float64) []float64 {
		*calls++
		if cap(dst) < 30 {
			dst = make([]float64, 30)
		}
		r := dst[:30]
		for t := range r {
			r[t] = p[0]*math.Exp(-p[1]*float64(t)) - 2*math.Exp(-0.1*float64(t))
		}
		return r
	}
}

// scheduleStarts are four starts of the decay problem; the third has the
// wrong length for the box, so LM rejects it without a run.
var scheduleStarts = [][]float64{{1, 0.5}, {3, 0.01}, {1}, {0.5, 1.5}}

var scheduleBox = Options{Lower: []float64{0, 0}, Upper: []float64{10, 5}}

// The sequential schedule runs every start in order and polishes the Keep
// best, exactly as the runs made one at a time by hand: it returns the
// first lowest-SSE endpoint, skips the start that fails, and its totals are
// the iterations and stalls of the successful runs.
func TestMultiStartFitSequential(t *testing.T) {
	var calls int
	f := expDecayInto(&calls)
	run := func(p0 []float64, iters int) (Result, error) {
		o := scheduleBox
		o.MaxIter = iters
		return FitInto(f, p0, o)
	}
	for _, sch := range []Schedule{{Screen: 200}, {Screen: 3, Polish: 40, Keep: 2}} {
		var want []Result
		for _, s0 := range scheduleStarts {
			if res, err := run(s0, sch.Screen); err == nil {
				want = append(want, res)
			}
		}
		if len(want) != 3 {
			t.Fatalf("%+v: %d of 4 starts ran, want 3 (the short one fails)", sch, len(want))
		}
		if sch.Polish > 0 {
			// The screens' SSEs are distinct, so the Keep best are plain to rank.
			screens := append([]Result(nil), want...)
			for range sch.Keep {
				b := 0
				for i, r := range screens {
					if r.SSE < screens[b].SSE {
						b = i
					}
				}
				res, err := run(screens[b].Params, sch.Polish)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, res)
				screens[b].SSE = math.Inf(1)
			}
		}
		var iters, stalls int
		best := want[0]
		for _, r := range want {
			iters += r.Iterations
			if r.Stalled {
				stalls++
			}
			if r.SSE < best.SSE {
				best = r
			}
		}

		var ms MultiStart
		v, sse := ms.Fit(f, scheduleStarts, sch, scheduleBox)
		if !sameBits(v, best.Params) || sse != best.SSE {
			t.Errorf("%+v: best %v at SSE %g, want %v at %g", sch, v, sse, best.Params, best.SSE)
		}
		if ms.Iterations != iters || ms.Stalls != stalls {
			t.Errorf("%+v: totals %d iterations and %d stalls, want %d and %d",
				sch, ms.Iterations, ms.Stalls, iters, stalls)
		}
		if sch.Polish == 0 && stalls == 0 {
			t.Errorf("%+v: no run stalled, so the stall total is untested", sch)
		}
	}
}

// Once the context is done the sequential schedule starts no run: not
// before its first, and not after the run that saw the cancellation.
func TestMultiStartFitStopsOnCancel(t *testing.T) {
	var calls int
	f := expDecayInto(&calls)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := scheduleBox
	opts.Ctx = ctx
	var ms MultiStart
	v, sse := ms.Fit(f, scheduleStarts, Schedule{Screen: 50, Polish: 50, Keep: 2}, opts)
	if v != nil || !math.IsInf(sse, 1) || calls != 0 || ms.Iterations != 0 {
		t.Fatalf("cancelled: best %v at %g after %d evaluations and %d iterations; want no run",
			v, sse, calls, ms.Iterations)
	}

	// Cancelled inside the first run: LM stops that run, and no later start
	// is evaluated (a run's first evaluation is at its start).
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	opts.Ctx = ctx
	var later int
	cancelling := func(dst, p []float64) []float64 {
		if calls == 5 {
			cancel()
		}
		if sameBits(p, scheduleStarts[1]) || sameBits(p, scheduleStarts[3]) {
			later++
		}
		return f(dst, p)
	}
	v, _ = ms.Fit(cancelling, scheduleStarts, Schedule{Screen: 50}, opts)
	if v != nil || later != 0 {
		t.Fatalf("cancelled mid-run: best %v, %d evaluations at later starts; want neither", v, later)
	}
}
