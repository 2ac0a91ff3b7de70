package lm

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Schedule is the LM budget of a multi-start fit (DESIGN.md §11): every
// start is screened for Screen iterations, then the Keep best screened
// endpoints resume for Polish more. A Polish of 0 screens only.
type Schedule struct{ Screen, Polish, Keep int }

// Run is one LM run of a schedule's phase: its start and, once the phase is
// over, LM's result or why the run failed or never started.
type Run struct {
	P0  []float64
	Res Result
	Err error
}

// BySSE scores an endpoint by its SSE.
func BySSE(_ []float64, sse float64) float64 { return sse }

// MultiStart runs multi-start schedules, one at a time, and keeps the LM
// totals of every run it merged. The zero value is ready to use; its run
// buffer is reused from one schedule to the next.
type MultiStart struct {
	Iterations int // LM iterations of the successful runs
	Stalls     int // successful runs that ended Stalled
	runs       []Run
}

// Run runs sch from each start and returns the endpoint with the lowest
// score, the first one on a tie, with that score (nil and +Inf when no run
// succeeded). phase runs the runs of one phase, iters iterations each from
// their P0, and records each run's Res or Err; a run it does not start must
// get an Err. When a phase is over, its runs are merged in order: screens
// in start order, polishes best first. Each successful run adds its
// iterations and stall to the totals, and score rates its endpoint once,
// from its LM vector and LM's SSE there; a run that failed is skipped.
// Every screened endpoint remains a valid answer, and the polish runs
// resume the Keep best of them by (score, screening order).
func (m *MultiStart) Run(sch Schedule, starts [][]float64, phase func(runs []Run, iters int),
	score func(v []float64, sse float64) float64) ([]float64, float64) {
	var best []float64
	bestScore := math.Inf(1)
	merge := func(r *Run) ([]float64, float64, bool) {
		if r.Err != nil {
			return nil, 0, false
		}
		m.Iterations += r.Res.Iterations
		if r.Res.Stalled {
			m.Stalls++
		}
		sc := score(r.Res.Params, r.Res.SSE)
		if sc < bestScore {
			best, bestScore = r.Res.Params, sc
		}
		return r.Res.Params, sc, true
	}
	type endpoint struct {
		v     []float64
		score float64
	}
	var screened []endpoint
	if sch.Polish > 0 {
		screened = make([]endpoint, 0, len(starts))
	}
	runs := slices.Grow(m.runs[:0], len(starts))[:len(starts)]
	m.runs = runs
	for k, s0 := range starts {
		runs[k] = Run{P0: s0}
	}
	phase(runs, sch.Screen)
	for k := range runs {
		if v, sc, ok := merge(&runs[k]); ok && sch.Polish > 0 {
			screened = append(screened, endpoint{v: v, score: sc})
		}
	}
	// Stable, so equal scores keep their screening order.
	slices.SortStableFunc(screened, func(a, b endpoint) int { return cmp.Compare(a.score, b.score) })
	runs = runs[:min(sch.Keep, len(screened))]
	for k := range runs {
		runs[k] = Run{P0: screened[k].v}
	}
	phase(runs, sch.Polish)
	for k := range runs {
		merge(&runs[k])
	}
	return best, bestScore
}

// Fit runs sch over f from each start, one run at a time on the calling
// goroutine, and returns the lowest-SSE endpoint and its SSE as Run does.
// Each run is FitInto under opts with the phase's iteration budget; once
// opts.Ctx is done, no further run starts.
func (m *MultiStart) Fit(f ResidualIntoFunc, starts [][]float64, sch Schedule, opts Options) ([]float64, float64) {
	return m.Run(sch, starts, func(runs []Run, iters int) {
		o := opts
		o.MaxIter = iters
		for k := range runs {
			r := &runs[k]
			if o.Ctx != nil && o.Ctx.Err() != nil {
				r.Err = fmt.Errorf("lm: run not started: %w", o.Ctx.Err())
				continue
			}
			r.Res, r.Err = FitInto(f, r.P0, o)
		}
	}, BySSE)
}
