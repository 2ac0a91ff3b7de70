package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"dspot/internal/lm"
	"dspot/internal/mdl"
	"dspot/internal/numcheck"
	"dspot/internal/optimize"
	"dspot/internal/stats"
	"dspot/internal/tensor"
)

// FitOptions controls the Δ-SPOT fitting pipeline. The zero value enables
// the full model; the Enable* switches exist for the paper's Fig. 4 ablation
// and for callers that know their data has no growth/shock structure.
type FitOptions struct {
	// DisableGrowth removes the population growth effect (P3).
	DisableGrowth bool
	// DisableShocks removes external shock detection (P4).
	DisableShocks bool
	// DisableCycles restricts every detected shock to be non-cyclic
	// (FUNNEL-style behaviour).
	DisableCycles bool
	// AcceptAllShocks disables the MDL gate on shock acceptance: every
	// proposed candidate is kept until MaxShocks or no residual peaks
	// remain. FOR ABLATION STUDIES ONLY — it demonstrates why the gate
	// exists (overfitting on held-out data); see experiments.AblationMDL.
	AcceptAllShocks bool
	// MaxShocks bounds shock discovery per keyword (default 12).
	MaxShocks int
	// MaxOuterIter bounds the alternate base/growth/shock rounds (default 3).
	MaxOuterIter int
	// CalendarPeriods are extra candidate periodicities in ticks (e.g.,
	// 52/26/104/208 for weekly data, 7/30/365 for daily). Defaults to the
	// weekly calendar; autocorrelation candidates are always added.
	CalendarPeriods []int
	// Workers bounds fitting concurrency across keywords/locations
	// (default: 4; 1 disables parallelism).
	Workers int
	// FDJacobian forces the LM sub-problems back onto finite-difference
	// Jacobians instead of the analytic sensitivity kernel
	// (SimulateWithSensitivities). The FD path is the documented fallback
	// and the cross-check oracle for the analytic derivatives (DESIGN.md
	// §11); production fits should leave this off — it costs p+1 full
	// simulations per LM iteration instead of one sensitivity pass.
	FDJacobian bool
	// Prevalidated asserts the caller already ran x.Validate() on this
	// exact tensor, letting Fit/FitGlobal skip the redundant O(d·l·n)
	// rescan. The HTTP boundary sets it after validating at parse time (so
	// degenerate input answers 400 before consuming fit workers or queue
	// slots); Fit sets it before delegating to FitGlobal. Never set it for
	// a tensor you did not just validate — the non-finite guards deeper in
	// the optimisers then become the only line of defence.
	Prevalidated bool
	// Context, when non-nil, cancels the fit cooperatively: every layer of
	// the pipeline — the outer alternation rounds, each LM iteration, each
	// golden-section/grid step, each shock-candidate evaluation, and each
	// local cell — checks it and returns an error wrapping context.Canceled
	// or context.DeadlineExceeded promptly once it is done. Cancel-to-stop
	// latency is bounded by one LM iteration, not one fit. The ctx-first
	// wrappers (FitCtx, FitGlobalCtx, FitLocalCtx, Stream.AppendCtx) set
	// this field for you. Nil means the fit runs to completion.
	Context context.Context
	// Progress, when non-nil, receives a FitEvent at every stage boundary:
	// per-keyword LM iteration counts and residuals, each shock candidate's
	// MDL cost delta and verdict, growth decisions, and per-stage wall-clock
	// timings. It is called concurrently from fitting workers and must be
	// safe for parallel use (FitTrace.Hook is the canonical consumer). Nil
	// disables tracing at zero cost.
	Progress ProgressFunc
}

func (o FitOptions) withDefaults() FitOptions {
	if o.MaxShocks <= 0 {
		o.MaxShocks = 12
	}
	if o.MaxOuterIter <= 0 {
		o.MaxOuterIter = 3
	}
	if o.CalendarPeriods == nil {
		o.CalendarPeriods = []int{52, 26, 104, 208}
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	return o
}

// maxShockStrength is the upper bound of every shock-strength search: the
// per-occurrence golden refinements (global, streaming, and local) and the
// LM strength boxes all use it. It used to differ between layers (60 in the
// streaming refine pass, 80 in the local fit), so a strength legitimately
// fitted near 80 by one layer was silently clipped by the next.
const maxShockStrength = 80

// GlobalFitResult is the outcome of fitting one keyword's global sequence.
type GlobalFitResult struct {
	Params KeywordParams
	Shocks []Shock
	Scale  float64 // normalisation divisor applied to the sequence
	Cost   float64 // final per-keyword MDL cost (model + coding), normalised data
}

// FitGlobalSequence fits the Δ-SPOT single-sequence model (Model 1 in the
// paper) to one global sequence x̄ by the alternating GlobalFit algorithm
// (Algorithm 2): LM base fit, MDL-gated growth fit, and greedy MDL-gated
// shock discovery, repeated while the total cost improves.
func FitGlobalSequence(seq []float64, keyword int, opts FitOptions) (res GlobalFitResult, err error) {
	opts = opts.withDefaults()
	// Entry-point boundary: this is where FitSequence, the FitGlobal
	// workers, and the stream refit path all funnel through, so validation
	// and panic containment live here. NaN entries pass (they are the
	// missing-value sentinel); Inf and negative counts are rejected with a
	// typed numcheck error before any optimiser sees them.
	defer recoverFitPanic(opts, keyword, -1, &err)
	if verr := numcheck.Sequence("core: sequence", seq); verr != nil {
		return GlobalFitResult{}, verr
	}
	if tensor.ObservedCount(seq) < 8 {
		return GlobalFitResult{}, errors.New("core: sequence too short to fit")
	}
	norm, scale := tensor.Normalize(seq)
	n := len(norm)

	st := &gfit{seq: norm, n: n, keyword: keyword, opts: opts, ctx: opts.Context}
	start := st.traceNow()
	st.params = KeywordParams{TEta: NoGrowth}
	st.fitBase(true)

	best := st.snapshot()
	bestCost := st.cost()
	rounds := 0
	for iter := 0; iter < opts.MaxOuterIter && !st.cancelled(); iter++ {
		rounds = iter + 1
		st.fitBase(iter == 0)
		if !opts.DisableGrowth {
			st.fitGrowth()
		}
		if !opts.DisableShocks {
			st.detectShocks()
			st.refineStrengths()
		}
		if st.cancelled() {
			break
		}
		c := st.cost()
		if opts.AcceptAllShocks {
			// Ablation mode: no MDL gating anywhere, including the outer
			// snapshot — keep whatever the round produced.
			bestCost = c
			best = st.snapshot()
			continue
		}
		if c < bestCost-1e-9 {
			bestCost = c
			best = st.snapshot()
		} else {
			break
		}
	}

	if err := st.cancelErr(); err != nil {
		return GlobalFitResult{}, fmt.Errorf("core: fit cancelled: %w", err)
	}
	params, shocks := best.params, best.shocks
	params.N *= scale // back to raw counts
	if math.IsInf(params.N, 0) || math.IsNaN(params.N) {
		// A near-float-ceiling input (scale ~1e308) can push the rescaled
		// population past the float64 range even though every fitted value
		// was finite. Honour the finite-parameters contract with an error
		// rather than handing a non-finite model to the registry.
		return GlobalFitResult{}, fmt.Errorf(
			"core: fitted population overflows at data scale %g", scale)
	}
	if opts.Progress != nil {
		opts.Progress(FitEvent{Stage: StageKeyword, Keyword: keyword, Location: -1,
			Round: rounds, LMIters: st.lmIters, LMStalls: st.lmStalls,
			Residual: bestCost, Duration: time.Since(start)})
	}
	return GlobalFitResult{Params: params, Shocks: shocks, Scale: scale, Cost: bestCost}, nil
}

// gfit is the mutable state of one global fit.
type gfit struct {
	seq     []float64 // normalised observations
	n       int
	keyword int
	opts    FitOptions
	ctx     context.Context // cooperative cancellation; nil = never cancelled
	ctxErr  error           // sticky: first ctx.Err() observed

	params KeywordParams
	shocks []Shock

	lmIters  int // LM iterations spent on this keyword so far
	lmStalls int // LM runs that ended Stalled (damping hit MaxLambda)

	// Scratch buffers threaded through the objective closures (see
	// DESIGN.md, "Hot path & memory discipline"). The fitting stages run
	// sequentially on one gfit, and each buffer is owned by exactly one
	// stage at a time; contents are only valid within a single objective
	// evaluation. epsBase additionally caches a stage's fixed base ε(t)
	// profile across evaluations (the accepted shocks' contribution in
	// evaluateCandidate), which is why it is distinct from epsBuf.
	// sensBuf is the per-parameter lane state of the analytic Jacobian
	// passes (3 lanes per differentiated parameter).
	epsBuf  []float64
	epsBase []float64
	simBuf  []float64
	sensBuf []float64
}

// evaluateCandidate's multi-start budget: of the 8 warm/masked/canonical
// candidate starts, one forward simulation each (startSSE) keeps the
// candKeep most promising by initial SSE (warm and masked always survive);
// each survivor gets a candScreenIter-iteration screening LM run; and the
// candPolish best screened results — ranked by MDL cost, the measure that
// judges the final candidate — are polished with the remaining budget.
// Initial SSE alone is too blunt an instrument to pick LM winners (a
// spiky-basin start can look terrible at its starting point yet win after
// LM, which is why the base fit prunes per population-scale group instead —
// see fitBaseIter), but it is safe for shaving the clearly hopeless tail
// when screening does the real ranking: after a dozen LM iterations each
// start has descended into its basin, so the screened costs compare basin
// floors rather than arbitrary starting heights.
const (
	candKeep       = 6
	candScreenIter = 20
	candPolishIter = 40
	candPolish     = 2
)

// fitGrowth's onset-search budget, the same two-phase schedule: every onset
// the refining grid visits gets growthScreenIter iterations from each of its
// two starts; the growthPolish best distinct onsets resume from their
// screened endpoints with the rest of the growthFitIter budget; and each
// neighbour of the closing ±1 hill-climb gets growthClimbIter from each of
// its starts. The grid visits about two dozen onsets per scan and keeps
// one, so nearly all of them are settled by the screening budget alone.
const (
	growthFitIter    = 80
	growthScreenIter = 10
	growthPolish     = 3
	growthClimbIter  = 40
)

// startSSE scores one candidate LM start by the SSE of its forward
// simulation (into simBuf) against the observed sequence. A NaN
// (all-missing) score becomes +Inf so every ordering built on the scores is
// total.
func (g *gfit) startSSE(p *KeywordParams, eps []float64) float64 {
	g.simBuf = SimulateInto(g.simBuf, p, g.n, eps, -1)
	if sse := stats.SSE(g.seq, g.simBuf); !math.IsNaN(sse) {
		return sse
	}
	return math.Inf(1)
}

// bestStartIdx returns the indices of the starts worth a full LM run, in
// their original order: the first force entries unconditionally (warm and
// masked starts are kept for the basin they open up, not their initial SSE),
// then the lowest-SSE remainder up to keep total. Ties break on index, so
// the selection is deterministic.
func bestStartIdx(sses []float64, keep, force int) []int {
	k := len(sses)
	if keep > k {
		keep = k
	}
	idx := make([]int, 0, keep)
	for i := 0; i < force && i < keep; i++ {
		idx = append(idx, i)
	}
	if len(idx) == keep {
		return idx
	}
	rest := make([]int, 0, k-len(idx))
	for i := force; i < k; i++ {
		rest = append(rest, i)
	}
	sort.Slice(rest, func(a, b int) bool {
		if sses[rest[a]] != sses[rest[b]] {
			return sses[rest[a]] < sses[rest[b]]
		}
		return rest[a] < rest[b]
	})
	idx = append(idx, rest[:keep-len(idx)]...)
	sort.Ints(idx)
	return idx
}

// ensureLen returns buf resized to n, reallocating only when the capacity
// is insufficient. The contents are unspecified.
func ensureLen(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// cancelled reports whether the fit's context has ended. The first
// observation is sticky, so every stage sees a consistent verdict even if
// the context races with the check.
func (g *gfit) cancelled() bool {
	if g.ctxErr != nil {
		return true
	}
	if g.ctx == nil {
		return false
	}
	if err := g.ctx.Err(); err != nil {
		g.ctxErr = err
		return true
	}
	return false
}

// cancelErr returns the sticky context error (nil while the fit is live).
func (g *gfit) cancelErr() error {
	if g.cancelled() {
		return g.ctxErr
	}
	return nil
}

// lmOpts builds the LM options for this fit's sub-problems, carrying the
// cancellation context so a mid-fit cancel stops within one LM iteration.
// jac is the analytic Jacobian of the sub-problem's residuals; it is
// dropped — falling back to finite differences inside lm — when the caller
// opted into FDJacobian. This is the only place internal/core constructs
// lm.Options, which is what lets the FDJacobian switch (and the CI grep
// gate guarding it) cover every production fit path at once.
func (g *gfit) lmOpts(maxIter int, lo, hi []float64, jac lm.JacobianFunc) lm.Options {
	o := lm.Options{MaxIter: maxIter, Lower: lo, Upper: hi, Ctx: g.ctx}
	if !g.opts.FDJacobian {
		o.Jacobian = jac
	}
	return o
}

// lmFit runs one LM sub-problem, folding its iteration count and stall
// verdict into the fit's running totals (surfaced per stage and per keyword
// as FitEvent.LMStalls). Every production LM call in this file goes through
// here, so the stall accounting covers the analytic and FD paths alike.
func (g *gfit) lmFit(resid lm.ResidualIntoFunc, p0 []float64, o lm.Options) (lm.Result, error) {
	res, err := lm.FitInto(resid, p0, o)
	if err == nil {
		g.lmIters += res.Iterations
		if res.Stalled {
			g.lmStalls++
		}
	}
	return res, err
}

// sensJacobian adapts one LM sub-problem to the analytic sensitivity
// kernel: assemble maps the LM vector v to the simulation inputs (params +
// ε profile, using the gfit scratch buffers), and specs names the
// differentiated lane of each v entry, in order. Residuals are seq − sim,
// so every sensitivity is negated in place. The returned closure writes
// the full m×dim Jacobian that lm expects; rows at missing observations
// are zeroed by the lm driver itself.
func (g *gfit) sensJacobian(specs []SensSpec, assemble func(v []float64) (*KeywordParams, []float64)) lm.JacobianFunc {
	return func(jac, v []float64) {
		p, eps := assemble(v)
		g.sensBuf = ensureLen(g.sensBuf, 3*len(specs))
		g.simBuf, jac = simulateSens(g.simBuf, jac, g.sensBuf, p, g.n, eps, -1, specs)
		for i := range jac {
			jac[i] = -jac[i]
		}
	}
}

type gsnapshot struct {
	params KeywordParams
	shocks []Shock
}

func (g *gfit) snapshot() gsnapshot {
	shocks := make([]Shock, len(g.shocks))
	for i, s := range g.shocks {
		s.Strength = append([]float64(nil), s.Strength...)
		shocks[i] = s
	}
	return gsnapshot{params: g.params, shocks: shocks}
}

// epsilon builds ε(t) from the current shocks.
func (g *gfit) epsilon() []float64 {
	return epsilonFromShocks(g.shocks, g.n)
}

func epsilonFromShocks(shocks []Shock, n int) []float64 {
	return epsilonFromShocksInto(nil, shocks, n)
}

// epsilonFromShocksInto is epsilonFromShocks into a caller-provided buffer
// (reused when its capacity suffices, freshly allocated otherwise).
func epsilonFromShocksInto(dst []float64, shocks []Shock, n int) []float64 {
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	eps := dst[:n]
	for t := range eps {
		eps[t] = 1
	}
	for i := range shocks {
		addShockProfile(eps, &shocks[i], shocks[i].Strength)
	}
	return eps
}

// rebuildEpsilonWindow recomputes eps[lo:hi) from scratch, accumulating in
// the same canonical (shock, occurrence) order as epsilonFromShocks. Float
// addition is not associative, so applying a ±delta in place would drift
// from a full rebuild; re-deriving the window ticks in canonical order keeps
// them bit-identical, which the golden-value tests pin down. Used by the
// strength refiners, where one occurrence's strength changes per evaluation
// and only its own window of ε(t) is affected.
func rebuildEpsilonWindow(eps []float64, shocks []Shock, lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if hi > len(eps) {
		hi = len(eps)
	}
	for t := lo; t < hi; t++ {
		eps[t] = 1
	}
	for i := range shocks {
		addShockProfileWindow(eps, &shocks[i], shocks[i].Strength, lo, hi)
	}
}

// simulate runs the current model.
func (g *gfit) simulate() []float64 {
	return Simulate(&g.params, g.n, g.epsilon(), -1)
}

// residuals returns seq − simulation with NaN at missing ticks.
func (g *gfit) residuals() []float64 {
	return residuals(g.seq, g.simulate())
}

// cost is the per-keyword MDL objective on normalised data: growth cost +
// shock model cost + Gaussian coding cost of the residuals. Base-parameter
// cost is identical across candidates and omitted.
func (g *gfit) cost() float64 {
	c := mdl.GaussianCost(g.residuals())
	c += costShockTensor(g.shocks, 1, 1, g.n)
	ps := []KeywordParams{g.params}
	c += costGrowthGlobal(ps)
	return c
}

// fitBase fits {N, β, δ, γ, i0} by LM with the current shocks and growth
// fixed. multiStart additionally tries a deterministic set of alternative
// starting points (used on the first round, when no warm start exists).
func (g *gfit) fitBase(multiStart bool) { g.fitBaseIter(multiStart, 120, true) }

// fitBaseIter is fitBase with an iteration budget and an optional pruning
// of the multi-start set (one forward simulation per start keeps the best
// start of each population-scale group — see the pruning block below). Both
// the top-level base fits and the per-candidate masked fits prune; the
// two-phase screen/polish loop underneath is what keeps pruning safe, since
// every surviving start still gets a basin-ranking screening run before the
// full budget is committed.
func (g *gfit) fitBaseIter(multiStart bool, maxIter int, prune bool) {
	t0 := g.traceNow()
	itersBefore, stallsBefore := g.lmIters, g.lmStalls
	eps := g.epsilon()
	resid := func(dst, p []float64) []float64 {
		cand := g.params
		cand.N, cand.Beta, cand.Delta, cand.Gamma, cand.I0 = p[0], p[1], p[2], p[3], p[4]
		g.simBuf = SimulateInto(g.simBuf, &cand, g.n, eps, -1)
		return residualsInto(dst, g.seq, g.simBuf)
	}
	var jp KeywordParams
	jacFn := g.sensJacobian(BaseSensSpecs(), func(v []float64) (*KeywordParams, []float64) {
		jp = g.params
		jp.N, jp.Beta, jp.Delta, jp.Gamma, jp.I0 = v[0], v[1], v[2], v[3], v[4]
		return &jp, eps
	})
	lo := []float64{1e-4, 1e-4, 1e-4, 1e-4, 1e-7}
	hi := []float64{20, 5, 2, 2, 1}

	type start [5]float64
	starts := []start{{g.params.N, g.params.Beta, g.params.Delta, g.params.Gamma, g.params.I0}}
	if g.params.N == 0 { // uninitialised: seed from the data
		m := stats.Mean(g.seq)
		if m <= 0 {
			m = 0.1
		}
		i0 := math.Max(g.seq[0], 1e-4)
		starts = []start{{math.Max(2*m, 0.05), 0.5, 0.45, 0.5, i0}}
	}
	var groups [][2]int // index ranges of the fast-mixing contact-rate sweeps
	if multiStart {
		base := starts[0]
		// Data-derived initial infective fraction: the first observations
		// divided by the population scale, so fast-mixing starts begin at
		// the observed level rather than at a degenerate warm-start value.
		head := g.seq
		if len(head) > 5 {
			head = head[:5]
		}
		headLevel := stats.Mean(head)
		// Fast-mixing starts over contact rates and population scales: the
		// search must cover both the "spiky" basin (large N headroom) and
		// the "smooth" basin regardless of the warm start.
		for _, n0 := range []float64{base[0], 2, 6} {
			i0Est := headLevel / math.Max(n0, 1e-6)
			if i0Est < 1e-5 {
				i0Est = 1e-5
			}
			if i0Est > 0.9 {
				i0Est = 0.9
			}
			lo := len(starts)
			for _, b := range []float64{0.2, 1.0, 2.5} {
				starts = append(starts, start{n0, b, 0.45, 0.5, i0Est})
			}
			groups = append(groups, [2]int{lo, len(starts)})
		}
		starts = append(starts, start{base[0], 0.5, 0.05, 0.05, base[4]}) // slow-mixing
	}
	if prune && len(groups) > 0 {
		// Pruning, one LM run per basin: the basins of the base fit are
		// indexed by population-scale headroom, so each contact-rate sweep
		// keeps only its lowest initial-SSE member while the warm start and
		// the slow-mixing start survive unconditionally. Pruning across
		// groups by global SSE rank is tempting but wrong: a spiky-basin
		// start can look terrible at its starting point yet win after LM.
		sses := make([]float64, len(starts))
		for i, s0 := range starts {
			p := g.params
			p.N, p.Beta, p.Delta, p.Gamma, p.I0 = s0[0], s0[1], s0[2], s0[3], s0[4]
			sses[i] = g.startSSE(&p, eps)
		}
		keep := make(map[int]bool, len(groups)+2)
		keep[0] = true
		keep[len(starts)-1] = true
		for _, gr := range groups {
			best := gr[0]
			for i := gr[0] + 1; i < gr[1]; i++ {
				if sses[i] < sses[best] {
					best = i
				}
			}
			keep[best] = true
		}
		pruned := make([]start, 0, len(keep))
		for i, s0 := range starts {
			if keep[i] {
				pruned = append(pruned, s0)
			}
		}
		starts = pruned
	}

	bestSSE := math.Inf(1)
	var bestParams []float64
	if len(starts) == 1 {
		// Warm single-start refit: one full-budget run, no phasing.
		res, err := g.lmFit(resid,
			[]float64{starts[0][0], starts[0][1], starts[0][2], starts[0][3], starts[0][4]},
			g.lmOpts(maxIter, lo, hi, jacFn))
		if err == nil {
			bestSSE, bestParams = res.SSE, res.Params
		}
	} else {
		// Two-phase multi-start, as in evaluateCandidate: short screening
		// runs rank the basins (each screened result remains a valid
		// answer), then the best two resume with the remaining budget.
		const screenIter, polishKeep = 10, 2
		type screened struct {
			params []float64
			sse    float64
			idx    int
		}
		scr := make([]screened, 0, len(starts))
		for _, s0 := range starts {
			if g.cancelled() {
				break
			}
			p0 := []float64{s0[0], s0[1], s0[2], s0[3], s0[4]}
			res, err := g.lmFit(resid, p0, g.lmOpts(screenIter, lo, hi, jacFn))
			if err != nil {
				continue
			}
			if res.SSE < bestSSE {
				bestSSE = res.SSE
				bestParams = res.Params
			}
			scr = append(scr, screened{params: res.Params, sse: res.SSE, idx: len(scr)})
		}
		sort.Slice(scr, func(a, b int) bool {
			if scr[a].sse != scr[b].sse {
				return scr[a].sse < scr[b].sse
			}
			return scr[a].idx < scr[b].idx
		})
		if len(scr) > polishKeep {
			scr = scr[:polishKeep]
		}
		for _, sc := range scr {
			if g.cancelled() {
				break
			}
			res, err := g.lmFit(resid, sc.params, g.lmOpts(maxIter-screenIter, lo, hi, jacFn))
			if err != nil {
				continue
			}
			if res.SSE < bestSSE {
				bestSSE = res.SSE
				bestParams = res.Params
			}
		}
	}
	if bestParams != nil {
		g.params.N, g.params.Beta, g.params.Delta = bestParams[0], bestParams[1], bestParams[2]
		g.params.Gamma, g.params.I0 = bestParams[3], bestParams[4]
	}
	g.emit(FitEvent{Stage: StageBase, Keyword: g.keyword, Location: -1,
		LMIters: g.lmIters - itersBefore, LMStalls: g.lmStalls - stallsBefore,
		Residual: bestSSE, Duration: sinceIfTraced(g, t0)})
}

// sinceIfTraced returns the elapsed time since start when tracing is on.
func sinceIfTraced(g *gfit, start time.Time) time.Duration {
	if g.opts.Progress == nil {
		return 0
	}
	return time.Since(start)
}

// fitGrowth searches for a population growth effect: an onset t_η and a
// rate η₀, fitted jointly with the base parameters {N, β, δ, γ, i0} so that
// a growth model competes on equal footing with the growth-free base (a
// base fit that has already smeared the level shift across slow dynamics
// can otherwise never be beaten). A median-level pre-check first skips
// series whose level never rises. The onset search is two-phase, like the
// base and shock-candidate fits (DESIGN.md §11):
//
//   - screen: a refining grid over t_η ranks every onset it visits by the
//     SSE of a short joint fit from two starts (the current base with a
//     golden-searched η₀, and a canonical fast-mixing start);
//   - polish: the growthPolish best distinct onsets resume from their
//     screened endpoints with the rest of the growthFitIter budget;
//   - climb: a ±1 hill-climb from the polished winner settles t_η. Each
//     neighbour resumes from the best endpoint so far and, when the grid
//     screened it, from its own screened endpoint too: warm starts alone
//     drag the winner's (η₀, base) basin along the walk, even where a
//     neighbour's own fit descends into a better one.
//
// The growth term is kept only when the MDL cost — which charges the two
// extra floats {η₀, t_η} — improves and η₀ is not negligible.
func (g *gfit) fitGrowth() {
	lo, hi := g.n/20+1, g.n-g.n/20-1
	if hi <= lo || g.cancelled() {
		return
	}
	start := g.traceNow()
	itersBefore, stallsBefore := g.lmIters, g.lmStalls
	// Cheap pre-check: the growth effect raises the *base level*, so a
	// series whose median level never shifts cannot carry one. Medians are
	// robust to the shock spikes, so bursty-but-level series (the common
	// case in wide hashtag tails) skip the expensive joint onset search
	// entirely. The thirds comparison is deliberately lenient (15%).
	third := g.n / 3
	if third >= 8 {
		first := stats.Quantile(g.seq[:third], 0.5)
		mid := stats.Quantile(g.seq[third:2*third], 0.5)
		last := stats.Quantile(g.seq[g.n-third:], 0.5)
		maxLate := mid
		if last > maxLate {
			maxLate = last
		}
		if first > 0 && maxLate/first < 1.15 {
			g.params.Eta0, g.params.TEta = 0, NoGrowth
			g.emit(FitEvent{Stage: StageGrowth, Keyword: g.keyword, Location: -1,
				Duration: sinceIfTraced(g, start)})
			return
		}
	}
	eps := g.epsilon()
	withoutGrowth := g.params
	withoutGrowth.Eta0, withoutGrowth.TEta = 0, NoGrowth
	simWithout := Simulate(&withoutGrowth, g.n, eps, -1)
	costWithout := mdl.GaussianCost(residuals(g.seq, simWithout)) +
		costGrowthGlobal([]KeywordParams{withoutGrowth})

	// Screen. The joint fit is the grid's objective even at the coarse
	// onsets: an η₀-only pass is too easily misled when the current base
	// parameters have smeared the level shift.
	screened := map[int]growthFit{}
	_, _, err := optimize.RefiningGridCtx(g.ctx, func(t int) float64 {
		f, ok := screened[t]
		if !ok {
			f = g.jointGrowthFit(t, eps, growthScreenIter, g.growthStarts(t, eps)...)
			screened[t] = f
		}
		return f.sse
	}, lo, hi, 16)
	if err != nil {
		return // cancelled mid-scan: keep the current (growth-free) params
	}

	// Polish. Ties break on the onset, so the selection is deterministic.
	ranked := make([]growthFit, 0, len(screened))
	for _, f := range screened {
		ranked = append(ranked, f)
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].sse != ranked[b].sse {
			return ranked[a].sse < ranked[b].sse
		}
		return ranked[a].tEta < ranked[b].tEta
	})
	if len(ranked) > growthPolish {
		ranked = ranked[:growthPolish]
	}
	best := ranked[0]
	for _, f := range ranked {
		if p := g.jointGrowthFit(f.tEta, eps, growthFitIter-growthScreenIter, f.v); p.sse < best.sse {
			best = p
		}
	}

	// Climb. A neighbour takes over only with a lower SSE, and no onset is
	// climbed twice, so the walk ends.
	climbed := map[int]bool{best.tEta: true}
	for moved := true; moved; {
		moved = false
		for _, t := range [2]int{best.tEta - 1, best.tEta + 1} {
			if t < lo || t > hi || climbed[t] {
				continue
			}
			climbed[t] = true
			starts := [][]float64{best.v}
			if sc, ok := screened[t]; ok {
				starts = append(starts, sc.v)
			}
			if f := g.jointGrowthFit(t, eps, growthClimbIter, starts...); f.sse < best.sse {
				best, moved = f, true
				break
			}
		}
	}
	if g.cancelled() {
		return
	}

	p := best.params()
	sim := Simulate(&p, g.n, eps, -1)
	costWith := mdl.GaussianCost(residuals(g.seq, sim)) +
		costGrowthGlobal([]KeywordParams{p})
	accepted := costWith < costWithout-1e-9 && p.Eta0 > 1e-4
	if accepted {
		g.params = p
	} else {
		g.params = withoutGrowth
	}
	g.emit(FitEvent{Stage: StageGrowth, Keyword: g.keyword, Location: -1,
		LMIters: g.lmIters - itersBefore, LMStalls: g.lmStalls - stallsBefore,
		CostDelta: costWith - costWithout, Accepted: accepted,
		Duration: sinceIfTraced(g, start)})
}

// growthFit is one joint growth fit at a fixed onset: the LM vector
// {N, β, δ, γ, i0, η₀} it ended at and that endpoint's SSE.
type growthFit struct {
	tEta int
	v    []float64
	sse  float64
}

func (f growthFit) params() KeywordParams {
	return KeywordParams{N: f.v[0], Beta: f.v[1], Delta: f.v[2], Gamma: f.v[3],
		I0: f.v[4], Eta0: f.v[5], TEta: f.tEta}
}

// growthStarts returns the screening starts of a joint growth fit at onset
// tEta: the current base parameters with η₀ from a golden search, and a
// canonical fast-mixing start.
func (g *gfit) growthStarts(tEta int, eps []float64) [][]float64 {
	eta0, _, _ := optimize.GoldenCtx(g.ctx, func(e float64) float64 {
		cand := g.params
		cand.TEta, cand.Eta0 = tEta, e
		g.simBuf = SimulateInto(g.simBuf, &cand, g.n, eps, -1)
		return stats.SSE(g.seq, g.simBuf)
	}, 0, 10, 1e-4, 60)
	return [][]float64{
		{g.params.N, g.params.Beta, g.params.Delta, g.params.Gamma, g.params.I0, eta0},
		{0.3, 0.5, 0.45, 0.5, 1e-3, 0.3},
	}
}

// jointGrowthFit runs LM over {N, β, δ, γ, i0, η₀} with t_η fixed, for up
// to maxIter iterations from each start, and returns the lowest-SSE
// endpoint (the first start at +Inf SSE when every run fails). eps is the
// shock profile, fixed for the whole growth search.
func (g *gfit) jointGrowthFit(tEta int, eps []float64, maxIter int, starts ...[]float64) growthFit {
	build := func(v []float64) KeywordParams {
		return growthFit{tEta: tEta, v: v}.params()
	}
	resid := func(dst, v []float64) []float64 {
		cand := build(v)
		g.simBuf = SimulateInto(g.simBuf, &cand, g.n, eps, -1)
		return residualsInto(dst, g.seq, g.simBuf)
	}
	var jp KeywordParams
	jacFn := g.sensJacobian(append(BaseSensSpecs(), SensSpec{Param: SensEta0}),
		func(v []float64) (*KeywordParams, []float64) {
			jp = build(v)
			return &jp, eps
		})
	lo := []float64{1e-4, 1e-4, 1e-4, 1e-4, 1e-7, 0}
	hi := []float64{20, 5, 2, 2, 1, 10}
	best := growthFit{tEta: tEta, v: starts[0], sse: math.Inf(1)}
	for _, s0 := range starts {
		if g.cancelled() {
			break
		}
		res, err := g.lmFit(resid, s0, g.lmOpts(maxIter, lo, hi, jacFn))
		if err != nil {
			continue
		}
		if res.SSE < best.sse {
			best.v, best.sse = res.Params, res.SSE
		}
	}
	return best
}

// detectShocks greedily adds external shocks while the MDL cost improves
// (the inner while-loop of Algorithm 2). Each round seeds a candidate from
// the largest positive residual run, searches over candidate periodicities
// and anchors, fits per-occurrence strengths, and accepts the best variant
// only if Cost_T drops.
func (g *gfit) detectShocks() {
	g.shocks = nil // re-initialise, as in Algorithm 2 line 10
	g.growShocks()
}

// growShocks extends the current shock set greedily while the MDL cost
// improves, without resetting it first — used both by detectShocks and by
// the incremental refit path, which keeps the previously discovered shocks.
func (g *gfit) growShocks() {
	cur := g.cost()
	for len(g.shocks) < g.opts.MaxShocks && !g.cancelled() {
		start := g.traceNow()
		itersBefore, stallsBefore := g.lmIters, g.lmStalls
		cand, params, cost, ok := g.bestShockCandidate()
		if !ok {
			break
		}
		accepted := cost < cur-1e-9 || g.opts.AcceptAllShocks
		if g.opts.Progress != nil {
			sc := cand // stable copy: the live shock keeps being refined
			g.opts.Progress(FitEvent{Stage: StageShock, Keyword: g.keyword,
				Location: -1, LMIters: g.lmIters - itersBefore,
				LMStalls: g.lmStalls - stallsBefore, CostDelta: cost - cur,
				Accepted: accepted, Shock: &sc, Duration: time.Since(start)})
		}
		if !accepted {
			break
		}
		g.shocks = append(g.shocks, cand)
		g.params = params
		cur = cost
	}
}

// bestShockCandidate proposes the single best next shock, trying non-cyclic
// and cyclic variants of the dominant residual peak. Each candidate's
// occurrence strengths are fitted and the base parameters are briefly
// refitted jointly with the shock — without the joint refit, base dynamics
// tuned to shock-free data systematically under-rate every candidate (a
// modelled spike drags a long artificial dip behind it when γ is fitted too
// low). It returns the winning shock, the accompanying refitted base
// parameters, and the resulting MDL cost.
func (g *gfit) bestShockCandidate() (Shock, KeywordParams, float64, bool) {
	resid := g.residuals()
	level := shockSeedLevel(resid, g.seq)
	peaks := stats.FindPeaks(resid, level)
	if len(peaks) == 0 {
		return Shock{}, g.params, 0, false
	}
	// Candidates seed from the dominant residual peak only: each accepted
	// shock changes the residuals, so secondary peaks get their turn on the
	// next greedy round (seeding several peaks at once proved to breed
	// accidental-period artifacts that cover multiple peaks at once).
	peaks = peaks[:1]

	// Stage A: cheap, simulation-free scoring of (period, anchor, width)
	// configurations by residual-mass coverage. Simulation-based scoring is
	// basin-dependent (a base fit stuck with a near-zero infective level
	// cannot express early spikes, so it misranks anchors); coverage is
	// not: each occurrence window is credited with the positive residual
	// mass it covers (with a two-tick lag allowance, since spikes trail the
	// ε onset), and occurrences landing on quiet stretches are penalised so
	// that over-frequent periods do not free-ride. The precise strengths
	// and the accept/reject decision come from stage B's joint LM + MDL.
	type config struct {
		shock Shock
		score float64
		peak  int // which residual peak seeded this config
	}
	// Thresholds derive from the dominant peak so secondary-peak candidates
	// are judged on the same scale.
	emptyLevel := 0.2 * peaks[0].Mass
	penalty := 0.3 * peaks[0].Mass
	coverage := func(p, anchor, w int) (config, bool) {
		s := Shock{Keyword: g.keyword, Period: p, Start: anchor, Width: w}
		occ := s.Occurrences(g.n)
		s.Strength = make([]float64, occ)
		if err := s.Validate(g.n, 0); err != nil {
			return config{}, false
		}
		total := 0.0
		for m := 0; m < occ; m++ {
			ws := s.OccurrenceStart(m)
			we := ws + w + 2
			if we > g.n {
				we = g.n
			}
			mass := 0.0
			for t := ws; t < we; t++ {
				if r := resid[t]; !math.IsNaN(r) && r > 0 {
					mass += r
				}
			}
			if mass < emptyLevel {
				total -= penalty
				continue
			}
			total += mass
		}
		return config{shock: s, score: total}, true
	}
	byScore := func(configs []config) {
		sort.Slice(configs, func(a, b int) bool {
			if configs[a].score != configs[b].score {
				return configs[a].score > configs[b].score
			}
			sa, sb := configs[a].shock, configs[b].shock
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			if sa.Period != sb.Period {
				return sa.Period < sb.Period
			}
			return sa.Width < sb.Width
		})
	}

	var configs []config
	for _, peak := range peaks {
		width := peak.Width
		if width < 1 {
			width = 1
		}
		if width > g.n/8+1 {
			width = g.n/8 + 1
		}
		// Candidate periodicities: non-cyclic plus ACF/calendar periods
		// that fit at least two occurrences into the window.
		periods := []int{NonCyclic}
		if !g.opts.DisableCycles {
			cands := stats.DominantPeriods(resid, 4, width+2, 0.15)
			cands = append(cands, g.opts.CalendarPeriods...)
			seenP := map[int]bool{}
			for _, p := range cands {
				if p <= width || p > g.n/2 || seenP[p] {
					continue
				}
				seenP[p] = true
				periods = append(periods, p)
			}
		}
		seen := map[int]bool{}
		for _, p := range periods {
			for _, jit := range []int{-2, -1, 0, 1} {
				for _, base := range anchorCandidates(peak.Start+jit, p) {
					if base < 0 {
						continue
					}
					for _, w := range []int{width - 1, width, width + 1} {
						if w < 1 || seen[p*1048576+base*1024+w] {
							continue
						}
						seen[p*1048576+base*1024+w] = true
						if c, ok := coverage(p, base, w); ok {
							c.peak = peak.Start
							configs = append(configs, c)
						}
					}
				}
			}
		}
	}
	if len(configs) == 0 {
		return Shock{}, g.params, 0, false
	}
	byScore(configs)
	// Shortlist: the top three by coverage, plus the best one-shot config
	// when none made the cut. Coverage structurally favours cyclic
	// candidates — they gather mass from every occurrence — but an
	// accidental period whose stage-B fit fails must not crowd out the
	// plain one-shot, which often wins the MDL gate (a launch spike the
	// base dynamics had contorted themselves to imitate is the canonical
	// case).
	top := 3
	if len(configs) < top {
		top = len(configs)
	}
	shortlist := append([]config(nil), configs[:top]...)
	hasOneShot := false
	for _, c := range shortlist {
		if c.shock.Period == NonCyclic {
			hasOneShot = true
		}
	}
	if !hasOneShot {
		for _, c := range configs[top:] {
			if c.shock.Period == NonCyclic {
				shortlist = append(shortlist, c)
				break
			}
		}
	}
	configs = shortlist

	// Stage B: joint base+strength LM refit of the shortlist, MDL-scored.
	best := Shock{}
	bestParams := g.params
	bestCost := math.Inf(1)
	found := false
	savedParams := g.params
	for _, cfg := range configs {
		if g.cancelled() {
			break
		}
		g.params = savedParams
		cand, params, c := g.evaluateCandidate(cfg.shock)
		if c < bestCost {
			bestCost, best, bestParams, found = c, cand, params, true
		}
	}
	g.params = savedParams
	return best, bestParams, bestCost, found
}

// evaluateCandidate fits the candidate shock jointly with the base
// parameters — LM over {N, β, δ, γ, i0} ∪ strengths — from a warm start
// (current params + windowed golden strengths) and from canonical starts.
// Fitting the two groups separately is a chicken-and-egg trap: strengths
// tuned to a bad base basin prevent the base refit from leaving it. It
// returns the fitted shock, the accompanying base parameters, and the
// resulting MDL cost.
func (g *gfit) evaluateCandidate(s Shock) (Shock, KeywordParams, float64) {
	occ := len(s.Strength)
	others := g.shocks // fixed, already-accepted shocks

	build := func(v []float64) (KeywordParams, []float64) {
		p := KeywordParams{N: v[0], Beta: v[1], Delta: v[2], Gamma: v[3], I0: v[4],
			Eta0: g.params.Eta0, TEta: g.params.TEta}
		return p, v[5 : 5+occ]
	}
	// The accepted shocks are fixed for the whole candidate evaluation, so
	// their ε(t) contribution is computed once; each residual evaluation
	// copies it and layers only the candidate's occurrences on top. The
	// candidate is added last, exactly as a full rebuild over others+cand
	// would, keeping the profile bit-identical to the allocating path.
	g.epsBase = epsilonFromShocksInto(g.epsBase, others, g.n)
	epsBase := g.epsBase
	candEps := func(strengths []float64) []float64 {
		cand := s
		cand.Strength = strengths
		g.epsBuf = ensureLen(g.epsBuf, g.n)
		copy(g.epsBuf, epsBase)
		addShockProfile(g.epsBuf, &cand, strengths)
		return g.epsBuf
	}
	resid := func(dst, v []float64) []float64 {
		p, strengths := build(v)
		g.simBuf = SimulateInto(g.simBuf, &p, g.n, candEps(strengths), -1)
		return residualsInto(dst, g.seq, g.simBuf)
	}
	specs := BaseSensSpecs()
	for m := 0; m < occ; m++ {
		specs = append(specs, StrengthSpec(&s, m, g.n))
	}
	var jp KeywordParams
	jacFn := g.sensJacobian(specs, func(v []float64) (*KeywordParams, []float64) {
		var strengths []float64
		jp, strengths = build(v)
		return &jp, candEps(strengths)
	})
	lo := make([]float64, 5+occ)
	hi := make([]float64, 5+occ)
	copy(lo, []float64{1e-4, 1e-4, 1e-4, 1e-4, 1e-7})
	copy(hi, []float64{20, 5, 2, 2, 1})
	for i := 5; i < len(hi); i++ {
		hi[i] = maxShockStrength
	}

	// Warm start: current base + windowed golden strengths.
	warm := s
	warm.Strength = append([]float64(nil), s.Strength...)
	g.fitShockStrengths(&warm)
	p0 := []float64{g.params.N, g.params.Beta, g.params.Delta, g.params.Gamma, g.params.I0}
	p0 = append(p0, warm.Strength...)

	// Masked start: base parameters fitted with the candidate's occurrence
	// windows blanked out. When the warm basin is degenerate — base
	// dynamics contorted into a single outbreak that imitates the dominant
	// spike — every start seeded from it keeps explaining the spike with
	// the base; the masked fit is forced to explain only the off-event
	// baseline, giving LM a "shock explains the spike" basin to start from.
	masked := g.maskedBaseParams(&s)
	pm := []float64{masked.N, masked.Beta, masked.Delta, masked.Gamma, masked.I0}
	for i := 0; i < occ; i++ {
		if i < len(warm.Strength) && warm.Strength[i] > 0 {
			pm = append(pm, warm.Strength[i])
		} else {
			pm = append(pm, 6)
		}
	}

	// Canonical starts: fast-mixing base at several population scales
	// (spiky series need N well above the baseline level so that ε-driven
	// spikes have susceptible headroom), with uniform strength guesses at
	// two magnitudes.
	head := g.seq
	if len(head) > 5 {
		head = head[:5]
	}
	headLevel := stats.Mean(head)
	starts := [][]float64{p0, pm}
	for _, n0 := range []float64{math.Max(2*stats.Mean(g.seq), 0.05), 2, 6} {
		i0Est := math.Min(math.Max(headLevel/n0, 1e-5), 0.9)
		for _, str := range []float64{4, 15} {
			cs := []float64{n0, 0.5, 0.45, 0.5, i0Est}
			for i := 0; i < occ; i++ {
				cs = append(cs, str)
			}
			starts = append(starts, cs)
		}
	}
	if len(starts) > candKeep {
		// Pruning: one forward simulation scores every start's initial SSE
		// (each with its own strengths layered onto the shared base ε). The
		// warm and masked starts (indices 0 and 1) are exempt — the masked
		// start exists precisely because its basin beats its initial SSE —
		// and the bar is deliberately loose: the screening runs below do the
		// real basin ranking.
		sses := make([]float64, len(starts))
		for i, v := range starts {
			p, strengths := build(v)
			sses[i] = g.startSSE(&p, candEps(strengths))
		}
		keep := bestStartIdx(sses, candKeep, 2)
		pruned := make([][]float64, 0, len(keep))
		for _, i := range keep {
			pruned = append(pruned, starts[i])
		}
		starts = pruned
	}

	// Each start is judged by the MDL cost of its fitted result — not by
	// SSE. The acceptance gate downstream is MDL, and an extra start with
	// marginally lower SSE but a costlier description must not displace a
	// cheaper one; under cost-based selection, adding starts is strictly
	// non-harmful.
	savedParams, savedShocks := g.params, g.shocks
	costOf := func(v []float64) (Shock, KeywordParams, float64) {
		p, strengths := build(v)
		out := s
		out.Strength = make([]float64, occ)
		for i, sv := range strengths {
			if sv < 1e-3 {
				sv = 0
			}
			out.Strength[i] = sv
		}
		g.params = p
		g.shocks = append(append([]Shock(nil), others...), out)
		c := g.cost()
		g.params, g.shocks = savedParams, savedShocks
		return out, p, c
	}

	bestCost := math.Inf(1)
	var bestShock Shock
	bestParams := g.params
	consider := func(v []float64) float64 {
		out, p, c := costOf(v)
		if c < bestCost {
			bestCost, bestShock, bestParams = c, out, p
		}
		return c
	}
	consider(p0) // the un-refit warm start is itself a valid candidate

	// Screening phase: a short LM run from every start, each result scored
	// (and kept as a valid candidate — the polish phase can only improve on
	// the screened best).
	type screened struct {
		params []float64
		cost   float64
		idx    int
	}
	scr := make([]screened, 0, len(starts))
	for _, st := range starts {
		if g.cancelled() {
			break
		}
		res, err := g.lmFit(resid, st, g.lmOpts(candScreenIter, lo, hi, jacFn))
		if err != nil {
			continue
		}
		scr = append(scr, screened{params: res.Params, cost: consider(res.Params),
			idx: len(scr)})
	}

	// Polish phase: the best screened results get the remaining iteration
	// budget, resumed from their screened endpoints. Ties break on screening
	// order, so the selection is deterministic.
	sort.Slice(scr, func(a, b int) bool {
		if scr[a].cost != scr[b].cost {
			return scr[a].cost < scr[b].cost
		}
		return scr[a].idx < scr[b].idx
	})
	if len(scr) > candPolish {
		scr = scr[:candPolish]
	}
	for _, sc := range scr {
		if g.cancelled() {
			break
		}
		res, err := g.lmFit(resid, sc.params, g.lmOpts(candPolishIter, lo, hi, jacFn))
		if err != nil {
			continue
		}
		consider(res.Params)
	}
	return bestShock, bestParams, bestCost
}

// shockSeedLevel picks the residual level above which a run is considered a
// candidate shock: well above the noise floor and a noticeable fraction of
// the signal.
func shockSeedLevel(resid, seq []float64) float64 {
	_, sigma2 := mdl.ResidualNoise(resid)
	noise := 2 * math.Sqrt(sigma2)
	signal := 0.08 * stats.Max(seq)
	if noise > signal {
		return noise
	}
	return signal
}

// anchorCandidates lists possible first-occurrence starts for a peak
// detected at tick start: the peak itself, and (for cyclic shocks) earlier
// ticks at the same phase. Long chains are subsampled to eight candidates
// (always keeping the peak itself and the earliest phase-aligned tick).
func anchorCandidates(start, period int) []int {
	if period <= 0 {
		return []int{start}
	}
	var out []int
	for a := start; a >= 0; a -= period {
		out = append(out, a)
	}
	const maxAnchors = 8
	if len(out) <= maxAnchors {
		return out
	}
	sub := make([]int, 0, maxAnchors)
	step := float64(len(out)-1) / float64(maxAnchors-1)
	for i := 0; i < maxAnchors; i++ {
		sub = append(sub, out[int(float64(i)*step+0.5)])
	}
	return sub
}

// fitShockStrengths fits the per-occurrence strengths of s (in time order,
// since the dynamics are causal), zeroing occurrences that do not help.
func (g *gfit) fitShockStrengths(s *Shock) {
	occ := s.Occurrences(g.n)
	s.Strength = make([]float64, occ)
	// Explicit copy, never append: when g.shocks has spare capacity an
	// append would write the candidate into the live backing array, where
	// later appends to the accepted-shock set would resurrect it.
	working := make([]Shock, len(g.shocks)+1)
	copy(working, g.shocks)
	working[len(working)-1] = *s
	self := &working[len(working)-1]
	// ε(t) cache: one full build up front, then only the perturbed
	// occurrence's window is re-derived per objective evaluation (and once
	// more when its fitted strength is committed, so the profile stays
	// current for the next occurrence).
	g.epsBuf = epsilonFromShocksInto(g.epsBuf, working, g.n)
	// Checkpointed simulation: occurrences are fitted in time order and
	// Strength[m] only perturbs ε(t) inside its own window, so the state
	// entering the window never depends on the value being searched. The
	// checkpoint advances monotonically to each window start; per golden
	// evaluation only [wstart, wend) is re-simulated from it — bit-identical
	// to a full re-simulation, since SimulateInto runs the same kernel.
	g.simBuf = ensureLen(g.simBuf, g.n)
	k := newKernel(&g.params, -1)
	ckpt, at := k.x0, 0
	for m := 0; m < occ; m++ {
		if g.cancelled() {
			break
		}
		// SSE over the window influenced by occurrence m: from its start to
		// the next occurrence (or a decay horizon for the last one).
		wstart := s.OccurrenceStart(m)
		wend := g.n
		if s.Period > 0 && wstart+s.Period < g.n {
			wend = wstart + s.Period
		} else if wstart+4*s.Width+16 < g.n {
			wend = wstart + 4*s.Width + 16
		}
		ohi := wstart + s.Width
		ckpt = k.run(ckpt, at, g.epsBuf[at:wstart], g.simBuf[at:wstart])
		at = wstart
		obj := func(str float64) float64 {
			self.Strength[m] = str
			rebuildEpsilonWindow(g.epsBuf, working, wstart, ohi)
			k.run(ckpt, wstart, g.epsBuf[wstart:wend], g.simBuf[wstart:wend])
			return stats.SSE(g.seq[wstart:wend], g.simBuf[wstart:wend])
		}
		strength, _, _ := optimize.GoldenCtx(g.ctx, obj, 0, 60, 1e-3, 60)
		if strength < 1e-3 {
			strength = 0
		}
		self.Strength[m] = strength
		rebuildEpsilonWindow(g.epsBuf, working, wstart, ohi)
	}
	s.Strength = append(s.Strength[:0], self.Strength...)
}

// refineStrengths jointly polishes all occurrence strengths with LM after
// greedy discovery, which corrects for interactions between nearby shocks.
func (g *gfit) refineStrengths() {
	var idx [][2]int // (shock, occurrence) for each parameter
	var p0 []float64
	for si := range g.shocks {
		for m, v := range g.shocks[si].Strength {
			if v > 0 {
				idx = append(idx, [2]int{si, m})
				p0 = append(p0, v)
			}
		}
	}
	if len(p0) == 0 {
		return
	}
	lo := make([]float64, len(p0))
	hi := make([]float64, len(p0))
	for i := range hi {
		hi[i] = maxShockStrength
	}
	resid := func(dst, p []float64) []float64 {
		for i, id := range idx {
			g.shocks[id[0]].Strength[id[1]] = p[i]
		}
		g.epsBuf = epsilonFromShocksInto(g.epsBuf, g.shocks, g.n)
		g.simBuf = SimulateInto(g.simBuf, &g.params, g.n, g.epsBuf, -1)
		return residualsInto(dst, g.seq, g.simBuf)
	}
	specs := make([]SensSpec, len(idx))
	for i, id := range idx {
		specs[i] = StrengthSpec(&g.shocks[id[0]], id[1], g.n)
	}
	jacFn := g.sensJacobian(specs, func(v []float64) (*KeywordParams, []float64) {
		for i, id := range idx {
			g.shocks[id[0]].Strength[id[1]] = v[i]
		}
		g.epsBuf = epsilonFromShocksInto(g.epsBuf, g.shocks, g.n)
		return &g.params, g.epsBuf
	})
	res, err := g.lmFit(resid, p0, g.lmOpts(60, lo, hi, jacFn))
	if err != nil {
		resid(nil, p0) // restore
		return
	}
	resid(nil, res.Params)
}

// maskedBaseParams fits the base parameters against the sequence with the
// shock's occurrence windows (plus a decay margin) masked out, so the base
// has to explain only the off-event baseline.
func (g *gfit) maskedBaseParams(s *Shock) KeywordParams {
	seqMasked := append([]float64(nil), g.seq...)
	for m := 0; m < len(s.Strength); m++ {
		start := s.OccurrenceStart(m) - 1
		end := s.OccurrenceStart(m) + s.Width + 4
		for t := start; t < end && t < g.n; t++ {
			if t >= 0 {
				seqMasked[t] = tensor.Missing
			}
		}
	}
	subOpts := g.opts
	subOpts.Progress = nil // inner helper fit: no stage events of its own
	sub := &gfit{seq: seqMasked, n: g.n, keyword: g.keyword, opts: subOpts, ctx: g.ctx}
	sub.params = KeywordParams{TEta: g.params.TEta, Eta0: g.params.Eta0}
	sub.fitBaseIter(true, 40, true)
	g.lmIters += sub.lmIters
	g.lmStalls += sub.lmStalls
	return sub.params
}

// sortShocks orders shocks deterministically (keyword, start, period).
func sortShocks(shocks []Shock) {
	sort.Slice(shocks, func(a, b int) bool {
		if shocks[a].Keyword != shocks[b].Keyword {
			return shocks[a].Keyword < shocks[b].Keyword
		}
		if shocks[a].Start != shocks[b].Start {
			return shocks[a].Start < shocks[b].Start
		}
		return shocks[a].Period < shocks[b].Period
	})
}
