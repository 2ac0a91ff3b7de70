package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
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
	// Workers bounds the goroutines that fit at once (default: 4; 1 fits
	// sequentially). FitGlobal's keyword workers share the budget with the
	// concurrent LM starts of each keyword's fit, which take the slots no
	// keyword worker holds, so a one-keyword fit (FitGlobalSequence, a
	// stream's cold fit or refit) uses all of it; FitLocal runs that many
	// cell workers. The fitted model is the same at every value.
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

// maxShockStrength is the upper bound of the shock-strength searches that
// decide a strength: the per-occurrence golden refinements (global,
// streaming, and local) and the LM strength boxes. It used to differ between
// layers (60 in the streaming refine pass, 80 in the local fit), so a
// strength legitimately fitted near 80 by one layer was silently clipped by
// the next.
const maxShockStrength = 80

// strengthSeedHi brackets fitShockStrengths' golden search, which only seeds
// evaluateCandidate's warm start: the joint LM that follows decides the
// strength inside its maxShockStrength box. It is kept at 60 rather than
// raised to maxShockStrength because a different bracket moves every golden
// probe, and with them the fitted models the golden test pins.
const strengthSeedHi = 60

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
func FitGlobalSequence(seq []float64, keyword int, opts FitOptions) (GlobalFitResult, error) {
	opts = opts.withDefaults()
	return fitGlobalSequence(seq, keyword, opts, newWorkerSlots(opts.Workers-1))
}

// fitGlobalSequence is FitGlobalSequence on the worker slots its LM starts
// may take, which FitGlobal's keyword workers share.
func fitGlobalSequence(seq []float64, keyword int, opts FitOptions, slots chan *lmScratch) (res GlobalFitResult, err error) {
	defer recoverFitPanic(opts, keyword, -1, &err)
	st, err := newSequenceFit(seq, keyword, opts, slots)
	if err != nil {
		return GlobalFitResult{}, err
	}
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

	if err := st.stopErr("fit"); err != nil {
		return GlobalFitResult{}, err
	}
	return st.result(best, bestCost, rounds)
}

// newSequenceFit is the entry both sequence fitters share, FitGlobalSequence
// and ContinueGlobalSequence, and so every path to a keyword's fit: the
// FitGlobal workers, FitSequence and the stream refits. Validation lives
// here (with the panic containment each fitter defers first): NaN entries
// pass, being the missing-value sentinel, while Inf and negative counts are
// rejected with a typed numcheck error before any optimiser sees them, and
// so is a sequence with fewer than 8 observed ticks. It returns the fit
// state over the sequence normalised to [0, 1], whose concurrent LM starts
// take their goroutines from slots.
func newSequenceFit(seq []float64, keyword int, opts FitOptions, slots chan *lmScratch) (*gfit, error) {
	if verr := numcheck.Sequence("core: sequence", seq); verr != nil {
		return nil, verr
	}
	if tensor.ObservedCount(seq) < 8 {
		return nil, errors.New("core: sequence too short to fit")
	}
	norm, scale := tensor.Normalize(seq)
	g := &gfit{seq: norm, n: len(norm), scale: scale, keyword: keyword, opts: opts,
		ctx: opts.Context, slots: slots}
	g.start = g.traceNow()
	return g, nil
}

// result is the exit both sequence fitters share: it rescales the chosen
// snapshot's population back to raw counts and emits the keyword's
// StageKeyword event. A near-float-ceiling input (scale ~1e308) can push
// the rescaled population past the float64 range even though every fitted
// value was finite; the finite-parameters contract is then honoured with an
// error rather than a non-finite model handed on to the registry.
func (g *gfit) result(best gsnapshot, cost float64, rounds int) (GlobalFitResult, error) {
	params := best.params
	params.N *= g.scale
	if math.IsInf(params.N, 0) || math.IsNaN(params.N) {
		return GlobalFitResult{}, fmt.Errorf(
			"core: fitted population overflows at data scale %g", g.scale)
	}
	if g.opts.Progress != nil {
		g.opts.Progress(FitEvent{Stage: StageKeyword, Keyword: g.keyword, Location: -1,
			Round: rounds, LMIters: g.lmIters, LMStalls: g.lmStalls,
			Residual: cost, Duration: time.Since(g.start)})
	}
	return GlobalFitResult{Params: params, Shocks: best.shocks, Scale: g.scale, Cost: cost}, nil
}

// gfit is the mutable state of one global fit. Its stages run one after
// another on the fit's goroutine; only the LM runs of a multiStart phase
// may run on other goroutines, and those only read the fit's state.
type gfit struct {
	seq     []float64 // normalised observations
	n       int
	scale   float64 // normalisation divisor of seq
	keyword int
	opts    FitOptions
	ctx     context.Context // cooperative cancellation; nil = never cancelled
	stop    error           // sticky: first ctx.Err() observed, or a concurrent LM run's panic
	start   time.Time       // traceNow at entry: the keyword event's clock
	slots   chan *lmScratch // the worker slots its concurrent LM runs take (multiStart)

	params KeywordParams
	shocks []Shock

	lmIters  int // LM iterations spent on this keyword so far
	lmStalls int // LM runs that ended Stalled (damping hit MaxLambda)

	// The fit's own scratch (DESIGN.md, "Hot path & memory discipline"):
	// the LM runs multiStart makes on the fit's goroutine assemble and
	// simulate into it, and so do the start probes and golden searches.
	// Each buffer is owned by one stage at a time; contents are only valid
	// within a single objective evaluation. epsBase caches a stage's fixed
	// base ε(t) profile across evaluations (the accepted shocks'
	// contribution in evaluateCandidate), which is why it is distinct from
	// epsBuf; concurrent runs only read it.
	lmScratch
	epsBase []float64

	runs    []lmRun        // multiStart's runs, reused from call to call
	running sync.WaitGroup // the runs on goroutines of their own
}

// evaluateCandidate's budget on multiStart's schedule: of the 8
// warm/masked/canonical candidate starts, one forward simulation each
// (startSSE) keeps the candKeep most promising by initial SSE (warm and
// masked always survive); each survivor is screened for candScreenIter
// iterations; and the candPolish best screened endpoints — ranked by MDL
// cost, the measure that judges the final candidate — resume for
// candPolishIter more. The un-refit warm start is scored before any of
// them. Initial SSE alone is too blunt an instrument to pick LM winners (a
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

// fitGrowth's onset-search budget. The onsets get their own two-phase
// schedule, around jointGrowthFit's screen-only runs of multiStart: every
// onset the refining grid visits gets growthScreenIter iterations from each
// of its two starts; the growthPolish best distinct onsets resume from
// their screened endpoints with the rest of the growthFitIter budget; and
// each neighbour of the closing ±1 hill-climb gets growthClimbIter from
// each of its starts. The grid visits about two dozen onsets per scan and
// keeps one, so nearly all of them are settled by the screening budget
// alone.
const (
	growthFitIter    = 80
	growthScreenIter = 10
	growthPolish     = 3
	growthClimbIter  = 40
)

// startSSE scores one candidate LM start by the SSE of its forward
// simulation (into simBuf) against the observed sequence. A NaN
// (all-missing) score becomes +Inf so every ordering built on the scores is
// total. It runs on the fit's goroutine, in the fit's own scratch.
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

// cancelled reports whether the fit must stop: its context has ended, or an
// LM run on another goroutine panicked (multiStart hands the panic over).
// The first reason is sticky, so every stage sees a consistent verdict even
// if the context races with the check. It writes the fit's state, so only
// the fit's own goroutine may call it.
func (g *gfit) cancelled() bool {
	if g.stop != nil {
		return true
	}
	if g.ctx == nil {
		return false
	}
	if err := g.ctx.Err(); err != nil {
		g.stop = err
		return true
	}
	return false
}

// stopErr returns why the fit stopped early, nil while it is live: the
// panic of a concurrent LM run, reported with a StagePanic event just as
// recoverFitPanic reports a panic on the fit's own goroutine, or the
// context's error, wrapped as "core: <what> cancelled".
func (g *gfit) stopErr(what string) error {
	if !g.cancelled() {
		return nil
	}
	var p *fitPanic
	if errors.As(g.stop, &p) {
		emitPanic(g.opts, g.keyword, -1)
		return p
	}
	return fmt.Errorf("core: %s cancelled: %w", what, g.stop)
}

// lmProblem is one LM sub-problem of the global fit, stated once: assemble
// maps an LM vector to the simulation inputs it stands for (the parameters
// and the ε(t) profile, built in the run's scratch sc), specs names the
// sensitivity lane of each vector entry, in order, and lo/hi is the box.
// The runs of a multiStart phase assemble concurrently, so assemble may
// read the fit's state but write only sc; refineStrengths' single start is
// the one exception (see there).
type lmProblem struct {
	assemble func(sc *lmScratch, v []float64) (*KeywordParams, []float64)
	specs    []SensSpec
	lo, hi   []float64
}

// lmScratch is the private scratch of one LM run at a time: assemble builds
// the run's parameters and ε(t) profile in cand and epsBuf, and the run
// simulates into simBuf and, for the analytic Jacobian, sensBuf (3 lane
// states per differentiated parameter). A run on the fit's goroutine uses
// the fit's own; a run on a goroutine of its own uses the one its worker
// slot carries.
type lmScratch struct {
	cand                    KeywordParams
	epsBuf, simBuf, sensBuf []float64

	// The run the scratch serves, set by lmRunner, and LM's closures over
	// it, made on the scratch's first run rather than per run: lm.Options
	// carries the Jacobian where escape analysis loses track of it, so a
	// closure made per run would be one more allocation every run.
	fit   *gfit
	pr    lmProblem
	resid lm.ResidualIntoFunc
	jac   lm.JacobianFunc
}

// newWorkerSlots returns n free worker slots. A slot is a token of the
// Workers budget that carries the scratch of the LM run holding it; a
// goroutine that fits holds one and hands it back when it is done, so the
// channel never holds more than the n it was made with and a send on it
// never blocks.
func newWorkerSlots(n int) chan *lmScratch {
	slots := make(chan *lmScratch, n)
	for range n {
		slots <- new(lmScratch)
	}
	return slots
}

// baseLo and baseHi box the base vector {N, β, δ, γ, i0} that leads the LM
// vector of the base, growth and shock-candidate fits. lm and simulateSens
// only read the package-level boxes and specs.
var (
	baseLo = []float64{1e-4, 1e-4, 1e-4, 1e-4, 1e-7}
	baseHi = []float64{20, 5, 2, 2, 1}
)

// The growth fit's LM vector is the base vector followed by η₀ in [0, 10].
var (
	growthLo, growthHi = extendBox(baseLo, baseHi, 1, 0, 10)
	growthSpecs        = append(BaseSensSpecs(), SensSpec{Param: SensEta0})
)

// extendBox returns the box lo/hi followed by k entries bounded by [l, h].
func extendBox(lo, hi []float64, k int, l, h float64) ([]float64, []float64) {
	lo = append(make([]float64, 0, len(lo)+k), lo...)
	hi = append(make([]float64, 0, len(hi)+k), hi...)
	for range k {
		lo, hi = append(lo, l), append(hi, h)
	}
	return lo, hi
}

// lmRunner returns the function that runs LM on pr from p0 for maxIter
// iterations in the scratch sc. It states both closures LM needs, over the
// problem and fit sc serves: the residuals, SimulateInto − seq (NaN at
// missing ticks), and their analytic Jacobian, the simulateSens lanes as
// they come (lm itself zeroes the rows at missing observations). This is
// the only place internal/core builds lm.Options, so one switch covers
// every production fit path: the Jacobian is dropped, falling back to
// finite differences inside lm, when the caller opted into FDJacobian, and
// the context stops a run within one LM iteration. A run writes only sc,
// so the runs of a multiStart phase may run at once; multiStart adds each
// successful run's iterations and stall verdict to the fit's totals
// (FitEvent.LMIters and LMStalls), on the analytic and FD paths alike.
func (g *gfit) lmRunner(pr lmProblem) func(sc *lmScratch, p0 []float64, maxIter int) (lm.Result, error) {
	opts := lm.Options{Lower: pr.lo, Upper: pr.hi, Ctx: g.ctx}
	return func(sc *lmScratch, p0 []float64, maxIter int) (lm.Result, error) {
		if sc.resid == nil {
			sc.resid = func(dst, v []float64) []float64 {
				p, eps := sc.pr.assemble(sc, v)
				sc.simBuf = SimulateInto(sc.simBuf, p, sc.fit.n, eps, -1)
				r := ensureLen(dst, sc.fit.n)
				for t, obs := range sc.fit.seq {
					r[t] = sc.simBuf[t] - obs // a missing tick is NaN, and so is its residual
				}
				return r
			}
			sc.jac = func(jac, v []float64) {
				p, eps := sc.pr.assemble(sc, v)
				sc.sensBuf = ensureLen(sc.sensBuf, 3*len(sc.pr.specs))
				sc.simBuf, _ = simulateSens(sc.simBuf, jac, sc.sensBuf, p, sc.fit.n, eps, -1, sc.pr.specs)
			}
		}
		sc.fit, sc.pr = g, pr
		o := opts
		o.MaxIter = maxIter
		if !g.opts.FDJacobian {
			o.Jacobian = sc.jac
		}
		return lm.FitInto(sc.resid, p0, o)
	}
}

// schedule is the LM budget of a multi-start fit (DESIGN.md §11): every
// start is screened for screen iterations, then the keep best screened
// endpoints resume for polish more. A polish of 0 screens only.
type schedule struct{ screen, polish, keep int }

// bySSE scores an LM endpoint by its SSE, the base and growth fits' measure.
func bySSE(_ []float64, sse float64) float64 { return sse }

// lmRun is one LM run of a multiStart phase: its start and, once the phase
// is over, LM's result or why the run failed or never started.
type lmRun struct {
	p0  []float64
	res lm.Result
	err error
}

// multiStart runs pr from each start under sch, the two-phase schedule
// every LM sub-problem of the global fit goes through, and returns the
// endpoint with the lowest score, the first one on a tie, with that score
// (nil and +Inf when no run succeeded). score rates the endpoint of each
// successful run once, from its LM vector and LM's SSE there. Screening
// runs every start; each screened endpoint remains a valid answer, and the
// polish runs resume the keep best of them by (score, screening order).
// Once the fit is cancelled no further run starts.
//
// The runs of a phase are independent, so they run concurrently, within
// the Workers budget: a run takes a worker slot without blocking and runs
// on a goroutine of its own, in the scratch the slot carries; the phase's
// last run, and any run that finds no slot free, runs on the fit's
// goroutine in the fit's own scratch, so at Workers 1 a phase is a plain
// loop. When a phase is over, the fit's goroutine takes its runs in order
// (screens in start order, polishes best first): it adds each run's
// iterations and stall, scores its endpoint and keeps the best, so every
// result and count is the same at every worker count. A panic on a run's
// goroutine comes back as that run's error and stops the fit (stopErr).
func (g *gfit) multiStart(pr lmProblem, starts [][]float64, sch schedule,
	score func(v []float64, sse float64) float64) ([]float64, float64) {
	run := g.lmRunner(pr)
	phase := func(runs []lmRun, iters int) {
		wg := &g.running
		defer wg.Wait() // an inline run's panic unwinds past no live run
		for k := range runs {
			r := &runs[k]
			if g.cancelled() {
				r.err = g.stop
				continue
			}
			if k < len(runs)-1 {
				select {
				case sc := <-g.slots:
					wg.Add(1)
					go func() {
						defer func() { g.slots <- sc; wg.Done() }()
						defer recoverRunPanic(&r.err)
						r.res, r.err = run(sc, r.p0, iters)
					}()
					continue
				default:
				}
			}
			r.res, r.err = run(&g.lmScratch, r.p0, iters)
		}
	}
	var best []float64
	bestScore := math.Inf(1)
	merge := func(r *lmRun) ([]float64, float64, bool) {
		if r.err != nil {
			var p *fitPanic
			if errors.As(r.err, &p) && g.stop == nil {
				g.stop = p
			}
			return nil, 0, false
		}
		g.lmIters += r.res.Iterations
		if r.res.Stalled {
			g.lmStalls++
		}
		sc := score(r.res.Params, r.res.SSE)
		if sc < bestScore {
			best, bestScore = r.res.Params, sc
		}
		return r.res.Params, sc, true
	}
	type endpoint struct {
		v     []float64
		score float64
	}
	var screened []endpoint
	if sch.polish > 0 {
		screened = make([]endpoint, 0, len(starts))
	}
	runs := slices.Grow(g.runs[:0], len(starts))[:len(starts)]
	g.runs = runs
	for k, s0 := range starts {
		runs[k] = lmRun{p0: s0}
	}
	phase(runs, sch.screen)
	for k := range runs {
		if v, sc, ok := merge(&runs[k]); ok && sch.polish > 0 {
			screened = append(screened, endpoint{v: v, score: sc})
		}
	}
	// Stable, so equal scores keep their screening order.
	slices.SortStableFunc(screened, func(a, b endpoint) int { return cmp.Compare(a.score, b.score) })
	runs = runs[:min(sch.keep, len(screened))]
	for k := range runs {
		runs[k] = lmRun{p0: screened[k].v}
	}
	phase(runs, sch.polish)
	for k := range runs {
		merge(&runs[k])
	}
	return best, bestScore
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
	return epsilonInto(make([]float64, g.n), 0, g.shocks, false, nil)
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
// two-phase schedule underneath is what keeps pruning safe, since every
// surviving start still gets a basin-ranking screening run before the full
// budget is committed.
func (g *gfit) fitBaseIter(multiStart bool, maxIter int, prune bool) {
	t0 := g.traceNow()
	itersBefore, stallsBefore := g.lmIters, g.lmStalls
	eps := g.epsilon()
	pr := lmProblem{specs: BaseSensSpecs(), lo: baseLo, hi: baseHi,
		assemble: func(sc *lmScratch, v []float64) (*KeywordParams, []float64) {
			sc.cand = g.withBase(v)
			return &sc.cand, eps
		}}

	starts := [][]float64{{g.params.N, g.params.Beta, g.params.Delta, g.params.Gamma, g.params.I0}}
	if g.params.N == 0 { // uninitialised: seed from the data
		m := stats.Mean(g.seq)
		if m <= 0 {
			m = 0.1
		}
		i0 := math.Max(g.seq[0], 1e-4)
		starts = [][]float64{{math.Max(2*m, 0.05), 0.5, 0.45, 0.5, i0}}
	}
	sch := schedule{screen: maxIter} // a warm single start: one full-budget run
	var groups [][2]int              // index ranges of the fast-mixing contact-rate sweeps
	if multiStart {
		sch = schedule{screen: 10, polish: maxIter - 10, keep: 2}
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
				starts = append(starts, []float64{n0, b, 0.45, 0.5, i0Est})
			}
			groups = append(groups, [2]int{lo, len(starts)})
		}
		starts = append(starts, []float64{base[0], 0.5, 0.05, 0.05, base[4]}) // slow-mixing
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
			sses[i] = g.startSSE(pr.assemble(&g.lmScratch, s0))
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
		pruned := make([][]float64, 0, len(keep))
		for i, s0 := range starts {
			if keep[i] {
				pruned = append(pruned, s0)
			}
		}
		starts = pruned
	}

	best, bestSSE := g.multiStart(pr, starts, sch, bySSE)
	if best != nil {
		g.params = g.withBase(best)
	}
	g.emit(FitEvent{Stage: StageBase, Keyword: g.keyword, Location: -1,
		LMIters: g.lmIters - itersBefore, LMStalls: g.lmStalls - stallsBefore,
		Residual: bestSSE, Duration: sinceIfTraced(g, t0)})
}

// withBase returns the fit's parameters with the base vector v[:5] in
// place of {N, β, δ, γ, i0}.
func (g *gfit) withBase(v []float64) KeywordParams {
	p := g.params
	p.N, p.Beta, p.Delta, p.Gamma, p.I0 = v[0], v[1], v[2], v[3], v[4]
	return p
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
	v, sse := g.multiStart(lmProblem{specs: growthSpecs, lo: growthLo, hi: growthHi,
		assemble: func(sc *lmScratch, v []float64) (*KeywordParams, []float64) {
			sc.cand = growthFit{tEta: tEta, v: v}.params()
			return &sc.cand, eps
		}}, starts, schedule{screen: maxIter}, bySSE)
	if v == nil {
		v = starts[0]
	}
	return growthFit{tEta: tEta, v: v, sse: sse}
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

	// The LM vector is the base vector followed by the candidate's
	// strengths. The accepted shocks are fixed for the whole candidate
	// evaluation, so their ε(t) contribution is computed once; each
	// assembly copies it and layers only the candidate's occurrences on top.
	// The candidate is added last, exactly as a full rebuild over
	// others+cand would, keeping the profile bit-identical to the
	// allocating path.
	g.epsBase = epsilonInto(ensureLen(g.epsBase, g.n), 0, others, false, nil)
	epsBase := g.epsBase
	specs := BaseSensSpecs()
	for m := 0; m < occ; m++ {
		specs = append(specs, StrengthSpec(&s, m, g.n))
	}
	lo, hi := extendBox(baseLo, baseHi, occ, 0, maxShockStrength)
	pr := lmProblem{specs: specs, lo: lo, hi: hi,
		assemble: func(sc *lmScratch, v []float64) (*KeywordParams, []float64) {
			cand := s
			sc.cand, cand.Strength = g.withBase(v), v[5:]
			sc.epsBuf = ensureLen(sc.epsBuf, g.n)
			copy(sc.epsBuf, epsBase)
			addShockEpsilon(sc.epsBuf, 0, &cand, 0)
			return &sc.cand, sc.epsBuf
		}}

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
		// and the bar is deliberately loose: the screening runs do the real
		// basin ranking.
		sses := make([]float64, len(starts))
		for i, v := range starts {
			sses[i] = g.startSSE(pr.assemble(&g.lmScratch, v))
		}
		keep := bestStartIdx(sses, candKeep, 2)
		pruned := make([][]float64, 0, len(keep))
		for _, i := range keep {
			pruned = append(pruned, starts[i])
		}
		starts = pruned
	}

	// Each endpoint is judged by the MDL cost of its fitted result — not by
	// SSE. The acceptance gate downstream is MDL, and an extra start with
	// marginally lower SSE but a costlier description must not displace a
	// cheaper one; under cost-based selection, adding starts is strictly
	// non-harmful.
	shockOf := func(v []float64) Shock {
		out := s
		out.Strength = make([]float64, occ)
		for i, sv := range v[5:] {
			if sv < 1e-3 {
				sv = 0
			}
			out.Strength[i] = sv
		}
		return out
	}
	savedParams, savedShocks := g.params, g.shocks
	costOf := func(v []float64, _ float64) float64 {
		g.params = g.withBase(v)
		g.shocks = append(append([]Shock(nil), others...), shockOf(v))
		c := g.cost()
		g.params, g.shocks = savedParams, savedShocks
		return c
	}
	// The un-refit warm start is itself a valid candidate, scored first.
	var best []float64
	bestCost := math.Inf(1)
	if c := costOf(p0, 0); c < bestCost {
		best, bestCost = p0, c
	}
	sch := schedule{screen: candScreenIter, polish: candPolishIter, keep: candPolish}
	if v, c := g.multiStart(pr, starts, sch, costOf); c < bestCost {
		best, bestCost = v, c
	}
	if best == nil {
		return Shock{}, g.params, bestCost
	}
	return shockOf(best), g.withBase(best), bestCost
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
	g.epsBuf = epsilonInto(ensureLen(g.epsBuf, g.n), 0, working, false, nil)
	// Occurrence m only perturbs ε(t) from its own start on, so the state
	// entering it never depends on the value being searched: the checkpoint
	// advances monotonically from one occurrence start to the next.
	g.simBuf = ensureLen(g.simBuf, g.n)
	k := newKernel(&g.params, -1)
	ckpt, at := k.x0, 0
	for m := 0; m < occ; m++ {
		if g.cancelled() {
			break
		}
		lo := self.OccurrenceStart(m)
		ckpt = k.run(ckpt, at, g.epsBuf[at:lo], g.simBuf[at:lo])
		at = lo
		g.searchStrength(&k, ckpt, working, self, m, strengthSeedHi)
	}
	s.Strength = append(s.Strength[:0], self.Strength...)
}

// searchStrength golden-searches [0, hi] for the strength of occurrence m
// of s, one of shocks, that minimises the SSE over the ticks the
// occurrence influences (occurrenceSpan), and commits it: s.Strength[m]
// holds the result, 0 below 1e-3, and g.epsBuf stays the full ε(t) profile
// of shocks, which it must be on entry. k simulates the fit's parameters
// and ckpt is its state entering the occurrence. Each golden step rebuilds
// only the occurrence's own ε(t) ticks and re-simulates only its span from
// ckpt, bit-identical to a full re-simulation, since both run the same
// kernel from the same state.
func (g *gfit) searchStrength(k *sivKernel, ckpt sivPoint, shocks []Shock, s *Shock, m int, hi float64) {
	lo, end := occurrenceSpan(s, m, g.n)
	occEps := g.epsBuf[lo:min(lo+s.Width, g.n)]
	obj := func(str float64) float64 {
		s.Strength[m] = str
		epsilonInto(occEps, lo, shocks, false, nil)
		k.run(ckpt, lo, g.epsBuf[lo:end], g.simBuf[lo:end])
		return stats.SSE(g.seq[lo:end], g.simBuf[lo:end])
	}
	strength, _, _ := optimize.GoldenCtx(g.ctx, obj, 0, hi, 1e-3, 60)
	if strength < 1e-3 {
		strength = 0
	}
	s.Strength[m] = strength
	epsilonInto(occEps, lo, shocks, false, nil)
}

// refineStrengths jointly polishes all occurrence strengths with LM after
// greedy discovery, which corrects for interactions between nearby shocks.
func (g *gfit) refineStrengths() {
	var idx [][2]int // (shock, occurrence) for each parameter
	var p0 []float64
	var specs []SensSpec
	for si := range g.shocks {
		for m, v := range g.shocks[si].Strength {
			if v > 0 {
				idx = append(idx, [2]int{si, m})
				p0 = append(p0, v)
				specs = append(specs, StrengthSpec(&g.shocks[si], m, g.n))
			}
		}
	}
	if len(p0) == 0 {
		return
	}
	lo, hi := extendBox(nil, nil, len(p0), 0, maxShockStrength)
	// assemble writes the strengths into the fit's shocks, which only a run
	// that nothing runs beside may do: the single start keeps it one, since
	// multiStart runs a phase's last run on the fit's goroutine.
	pr := lmProblem{specs: specs, lo: lo, hi: hi,
		assemble: func(sc *lmScratch, v []float64) (*KeywordParams, []float64) {
			for i, id := range idx {
				g.shocks[id[0]].Strength[id[1]] = v[i]
			}
			sc.epsBuf = epsilonInto(ensureLen(sc.epsBuf, g.n), 0, g.shocks, false, nil)
			return &g.params, sc.epsBuf
		}}
	best, _ := g.multiStart(pr, [][]float64{p0}, schedule{screen: 60}, bySSE)
	if best == nil {
		best = p0 // restore
	}
	pr.assemble(&g.lmScratch, best)
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
	sub := &gfit{seq: seqMasked, n: g.n, keyword: g.keyword, opts: subOpts, ctx: g.ctx,
		slots: g.slots}
	sub.params = KeywordParams{TEta: g.params.TEta, Eta0: g.params.Eta0}
	sub.fitBaseIter(true, 40, true)
	g.lmIters += sub.lmIters
	g.lmStalls += sub.lmStalls
	if g.stop == nil {
		g.stop = sub.stop // a panic of one of the sub-fit's runs stops this fit too
	}
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
