package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dspot/internal/tensor"
)

// Fit runs the full Δ-SPOT algorithm (Algorithm 1): GlobalFit over the d
// global sequences, then LocalFit over the d×l local sequences, returning
// the complete parameter set F = {B_G, B_L, R_G, R_L, S}. Fitting is
// parallel across keywords and locations but fully deterministic: every
// worker writes only its own slots.
func Fit(x *tensor.Tensor, opts FitOptions) (*Model, error) {
	if !opts.Prevalidated {
		if err := x.Validate(); err != nil {
			return nil, err
		}
		opts.Prevalidated = true
	}
	opts = opts.withDefaults()
	m, err := FitGlobal(x, opts)
	if err != nil {
		return nil, err
	}
	if err := FitLocal(x, m, opts); err != nil {
		return nil, err
	}
	return m, nil
}

// FitCtx is Fit under a cancellation context: once ctx ends, every fitting
// layer stops cooperatively and the call returns an error wrapping
// context.Canceled or context.DeadlineExceeded within about one LM
// iteration. It is shorthand for setting FitOptions.Context.
func FitCtx(ctx context.Context, x *tensor.Tensor, opts FitOptions) (*Model, error) {
	opts.Context = ctx
	return Fit(x, opts)
}

// FitGlobalCtx is FitGlobal under a cancellation context (see FitCtx).
func FitGlobalCtx(ctx context.Context, x *tensor.Tensor, opts FitOptions) (*Model, error) {
	opts.Context = ctx
	return FitGlobal(x, opts)
}

// FitLocalCtx is FitLocal under a cancellation context (see FitCtx).
func FitLocalCtx(ctx context.Context, x *tensor.Tensor, m *Model, opts FitOptions) error {
	opts.Context = ctx
	return FitLocal(x, m, opts)
}

// ctxErr surfaces the configured fit context's error, if any.
func (o FitOptions) ctxErr() error {
	if o.Context == nil {
		return nil
	}
	return o.Context.Err()
}

// FitWithReport runs Fit with tracing enabled and returns the aggregated
// FitReport alongside the model: per-stage wall-clock, LM iteration totals,
// and shock candidates tried vs accepted. Any Progress hook already set on
// opts keeps receiving events too.
func FitWithReport(x *tensor.Tensor, opts FitOptions) (*Model, *FitReport, error) {
	tr := NewFitTrace()
	opts.Progress = chainProgress(opts.Progress, tr.Hook())
	m, err := Fit(x, opts)
	if err != nil {
		return nil, nil, err
	}
	return m, tr.Report(), nil
}

// FitGlobalWithReport is FitWithReport for the global phase only.
func FitGlobalWithReport(x *tensor.Tensor, opts FitOptions) (*Model, *FitReport, error) {
	tr := NewFitTrace()
	opts.Progress = chainProgress(opts.Progress, tr.Hook())
	m, err := FitGlobal(x, opts)
	if err != nil {
		return nil, nil, err
	}
	return m, tr.Report(), nil
}

// recoverFitPanic is the deferred panic boundary of every fitting worker.
// A panic inside one keyword's (or one cell's) fit must not take down the
// process — jobs already recovers, but the sync HTTP path, the CLI, and
// Stream.Append call the fitters on their own goroutines where an escaped
// panic is fatal. The panic becomes an error in *dst (kept only when the
// slot has no earlier error) and a StagePanic event so FitReport.Panics
// surfaces the containment.
func recoverFitPanic(opts FitOptions, keyword, location int, dst *error) {
	rec := recover()
	if rec == nil {
		return
	}
	if *dst == nil {
		*dst = &fitPanic{value: rec}
	}
	emitPanic(opts, keyword, location)
}

// fitPanic is a contained panic, the error a fit returns in its place.
type fitPanic struct{ value any }

func (p *fitPanic) Error() string { return fmt.Sprintf("core: fit panicked: %v", p.value) }

// recoverRunPanic is the deferred panic boundary of an LM run on a
// goroutine of its own (multiStart), which cannot unwind the fit's
// goroutine: the panic becomes the run's error, and the fit's goroutine,
// taking the run's result, stops the fit with it and returns it with a
// StagePanic event (gfit.stopErr), as recoverFitPanic would have.
func recoverRunPanic(dst *error) {
	if rec := recover(); rec != nil {
		*dst = &fitPanic{value: rec}
	}
}

// emitPanic reports a contained panic through the Progress hook. The hook
// itself may be the panicker (it runs inside the fitters), so the emit is
// guarded by its own recover rather than re-entering recoverFitPanic.
func emitPanic(opts FitOptions, keyword, location int) {
	if opts.Progress == nil {
		return
	}
	defer func() { _ = recover() }()
	opts.Progress(FitEvent{Stage: StagePanic, Keyword: keyword, Location: location})
}

// emitPhase reports a whole-phase boundary (StageGlobal/StageLocal).
func emitPhase(opts FitOptions, stage string, start time.Time) {
	if opts.Progress == nil {
		return
	}
	opts.Progress(FitEvent{Stage: stage, Keyword: -1, Location: -1,
		Duration: time.Since(start)})
}

// phaseStart timestamps a phase only when tracing is enabled.
func phaseStart(opts FitOptions) time.Time {
	if opts.Progress == nil {
		return time.Time{}
	}
	return time.Now()
}

// FitGlobal runs only the global phase (Algorithm 2) and returns a model
// whose local matrices are nil. Useful when only world-level analysis or
// forecasting is needed — it is l times cheaper than the full fit.
func FitGlobal(x *tensor.Tensor, opts FitOptions) (*Model, error) {
	// Validate here, not only in Fit: FitGlobal is itself a public entry
	// point, and an Inf count that slips into a worker costs a whole
	// keyword fit before the optimiser guards reject every candidate.
	// Prevalidated callers (Fit, the HTTP handlers) already paid for the
	// scan once.
	if !opts.Prevalidated {
		if err := x.Validate(); err != nil {
			return nil, err
		}
	}
	opts = opts.withDefaults()
	start := phaseStart(opts)
	d := x.D()
	m := &Model{
		Keywords:  append([]string(nil), x.Keywords...),
		Locations: append([]string(nil), x.Locations...),
		Ticks:     x.N(),
		Global:    make([]KeywordParams, d),
		Scale:     make([]float64, d),
	}

	results := make([]GlobalFitResult, d)
	errs := make([]error, d)
	// Fixed worker pool: exactly min(Workers, d) keyword workers exist at
	// any moment, each draining keyword indices from a channel. Workers
	// observe the fit context between keywords (and FitGlobalSequence
	// observes it within each fit), so a cancel stops the whole phase
	// promptly. The workers and the concurrent LM starts of their fits
	// share one budget of Workers slots: each worker holds one until the
	// keywords run out, so a fit's LM starts take only the slots no worker
	// holds.
	workers := opts.Workers
	if workers > d {
		workers = d
	}
	slots := newWorkerSlots(opts.Workers)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		own := <-slots
		wg.Add(1)
		go func() {
			defer func() { slots <- own; wg.Done() }()
			for i := range idx {
				if err := opts.ctxErr(); err != nil {
					errs[i] = err
					continue
				}
				func() {
					defer recoverFitPanic(opts, i, -1, &errs[i])
					results[i], errs[i] = fitGlobalSequence(x.Global(i), i, opts, slots)
				}()
			}
		}()
	}
	for i := 0; i < d; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if err := opts.ctxErr(); err != nil {
		return nil, fmt.Errorf("core: global fit cancelled: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: keyword %q: %w", x.Keywords[i], err)
		}
	}
	for i, r := range results {
		m.Global[i] = r.Params
		m.Scale[i] = r.Scale
		m.Shocks = append(m.Shocks, r.Shocks...)
	}
	sortShocks(m.Shocks)
	emitPhase(opts, StageGlobal, start)
	return m, nil
}

// FitLocal runs the local phase (Algorithm 3) against a model produced by
// FitGlobal, filling B_L, R_L and the shock Local matrices in place.
func FitLocal(x *tensor.Tensor, m *Model, opts FitOptions) error {
	opts = opts.withDefaults()
	phase := phaseStart(opts)
	d, l, n := x.D(), x.L(), x.N()
	if n != m.Ticks || d != len(m.Global) {
		return fmt.Errorf("core: tensor (%d,%d,%d) does not match model (%d keywords, %d ticks)",
			d, l, n, len(m.Global), m.Ticks)
	}
	m.LocalN = newMatrix(d, l)
	m.LocalR = newMatrix(d, l)
	// Pre-allocate every shock's Local matrix; workers fill disjoint columns.
	for si := range m.Shocks {
		s := &m.Shocks[si]
		s.Local = make([][]float64, len(s.Strength))
		for occ := range s.Local {
			s.Local[occ] = make([]float64, l)
		}
	}
	// Group shock indices by keyword once.
	byKeyword := make([][]int, d)
	for si := range m.Shocks {
		k := m.Shocks[si].Keyword
		byKeyword[k] = append(byKeyword[k], si)
	}

	// Fixed worker pool over a cell channel: spawning all d×l goroutines up
	// front (even gated by a semaphore) allocates a goroutine per cell — a
	// 1000×100 tensor would create 100k goroutines with Workers=1. Exactly
	// min(Workers, d×l) goroutines exist here, draining cells as they go,
	// and each checks the fit context before starting a cell.
	type cell struct{ i, j int }
	workers := opts.Workers
	if total := d * l; workers > total {
		workers = total
	}
	cellErrs := make([]error, d*l) // each worker writes only its own slots
	cells := make(chan cell)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range cells {
				if opts.ctxErr() != nil {
					continue // drain remaining cells without fitting
				}
				i, j := c.i, c.j
				func() {
					defer recoverFitPanic(opts, i, j, &cellErrs[i*l+j])
					var cellStart time.Time
					if opts.Progress != nil {
						cellStart = time.Now()
					}
					// Worker-local copies of the keyword's shocks.
					shocks := make([]Shock, len(byKeyword[i]))
					for p, si := range byKeyword[i] {
						shocks[p] = m.Shocks[si]
					}
					nij, rij, strengths := m.localFitKeywordLocation(i, j, x.Local(i, j), shocks, opts.Context)
					m.LocalN[i][j] = nij
					m.LocalR[i][j] = rij
					for p, si := range byKeyword[i] {
						for occ, v := range strengths[p] {
							m.Shocks[si].Local[occ][j] = v
						}
					}
					if opts.Progress != nil {
						opts.Progress(FitEvent{Stage: StageLocalCell, Keyword: i,
							Location: j, Duration: time.Since(cellStart)})
					}
				}()
			}
		}()
	}
	for i := 0; i < d; i++ {
		for j := 0; j < l; j++ {
			cells <- cell{i, j}
		}
	}
	close(cells)
	wg.Wait()
	if err := opts.ctxErr(); err != nil {
		return fmt.Errorf("core: local fit cancelled: %w", err)
	}
	for ci, err := range cellErrs {
		if err != nil {
			return fmt.Errorf("core: keyword %q location %q: %w",
				x.Keywords[ci/l], x.Locations[ci%l], err)
		}
	}
	emitPhase(opts, StageLocal, phase)
	return nil
}

func newMatrix(rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
	}
	return out
}
