package core

import (
	"math"

	"dspot/internal/mdl"
	"dspot/internal/optimize"
	"dspot/internal/stats"
	"dspot/internal/tensor"
)

// Incremental maintenance: a fitted Stream does O(1) to O(tail) work per
// appended tick instead of re-entering the batch fitter. The model
// simulation is extended one tick at a time from a checkpointed SIV state,
// and the expensive batch refit is amortised behind a refit-debt counter:
// only when the debt crosses a threshold does a full
// ContinueGlobalSequence run. This is the D-Tracker posture — model the
// stream incrementally, treat batch refits as consolidation — and what
// makes per-append latency independent of the stream length. The RefitMode
// is the debt policy: under RefitIncremental, residuals over a sliding
// tail window are also re-examined for new shocks (and for stale
// occurrence strengths of known shocks), and structural changes accrue
// extra debt.

// RefitMode selects a Stream's debt policy: how appended ticks accrue refit
// debt and where the consolidating batch refit fires.
type RefitMode int

const (
	// RefitBatch is the refit cadence: each appended tick adds one unit of
	// debt against a limit of RefitEvery, so the warm-start batch fitter
	// (ContinueGlobalSequence) re-runs every RefitEvery ticks. The tail is
	// not scanned; each refit costs O(n).
	RefitBatch RefitMode = iota
	// RefitIncremental re-scans the tail O(TailWindow) per appended tick and
	// schedules a full batch refit only when the accumulated refit debt —
	// surcharged for structural events — crosses the debt limit (or on
	// demand via RefitNow).
	RefitIncremental
)

// String returns the wire name of the policy ("batch" / "incremental").
func (m RefitMode) String() string {
	if m == RefitIncremental {
		return "incremental"
	}
	return "batch"
}

// ParseRefitMode parses a wire-format mode name. The empty string selects
// RefitBatch (the historical default), keeping legacy callers and persisted
// snapshots meaningful.
func ParseRefitMode(s string) (RefitMode, bool) {
	switch s {
	case "", "batch":
		return RefitBatch, true
	case "incremental":
		return RefitIncremental, true
	}
	return RefitBatch, false
}

// IncrementalConfig tunes the incremental maintenance path. The zero value
// selects defaults.
type IncrementalConfig struct {
	// TailWindow sizes every fitted stream's checkpoint ring, and is how
	// many trailing ticks RefitIncremental re-examines for new shocks and
	// stale strengths (default 104). It bounds the per-append work: every
	// maintenance operation is O(TailWindow).
	TailWindow int
	// DebtLimit is the refit-debt level at which a RefitIncremental full
	// batch refit fires (RefitBatch's limit is RefitEvery). Zero selects
	// 8×RefitEvery (at least 2×TailWindow). Each appended tick adds one
	// unit of debt; structural events (an accepted tail shock, a value
	// beyond the fitted normalisation scale) add more, pulling the
	// consolidating refit closer exactly when the model drifted.
	DebtLimit float64
}

func (c IncrementalConfig) withDefaults() IncrementalConfig {
	if c.TailWindow <= 0 {
		c.TailWindow = 104
	}
	return c
}

// Debt surcharge constants (in ticks-worth of debt). Values are heuristic
// but deterministic: they only decide how soon the consolidating batch refit
// fires, never what the model says.
const (
	// debtTailShock is added when the tail scan commits a structural change
	// (new shock or refitted occurrence strength): the quick windowed fit is
	// a stop-gap the full refit should consolidate.
	debtTailShock = 64
	// debtRejectedPeak is added once per distinct residual peak the tail scan
	// examined and rejected — unmodelled structure the batch fitter should
	// get a proper look at.
	debtRejectedPeak = 16
	// debtStaleScale is added per tick whose observation exceeds the fitted
	// normalisation scale: the [0,1] normalisation the model was fitted under
	// no longer covers the data.
	debtStaleScale = 4
)

// incState is the derived checkpoint of a fitted stream. It is never
// serialised: RestoreStream rebuilds it deterministically from the
// sequence and the fit result, and the rebuild is bit-identical to having
// maintained it live (pinned by TestIncrementalRestoreBitIdentical).
type incState struct {
	w     int     // ring capacity == TailWindow
	scale float64 // normalisation of the fit this state extends

	// The fit's kernel at normalised N: sim and resid are in the [0,1]
	// space the fit ran in.
	sivKernel

	head int      // ticks simulated so far; rings cover [head-w, head)
	cur  sivPoint // state entering tick head

	states  []sivPoint // states[t%w]: SIV state entering tick t
	sim     []float64  // sim[t%w]: simulated normalised output at t
	resid   []float64  // resid[t%w]: normalised observation − sim (NaN = missing)
	future  []float64  // per shock: strength advance gives an occurrence the fit never saw
	normMax float64    // max normalised observation seen

	scratch []float64 // contiguous tail copies for scans
}

// newIncState builds the incremental state for a fitted stream by replaying
// the whole sequence once through the kernel — O(n), paid only at (re)fit
// and restore time. future overrides the projected per-shock
// strengths (restore passes the persisted ones; nil recomputes them).
func newIncState(seq []float64, res *GlobalFitResult, future []float64, w int) *incState {
	st := &incState{w: w, scale: res.Scale}
	p := res.Params
	if st.scale > 0 {
		p.N = p.N / st.scale // back into normalised space
	}
	st.sivKernel = newKernel(&p, -1)
	st.cur = st.x0
	st.states = make([]sivPoint, w)
	st.sim = make([]float64, w)
	st.resid = make([]float64, w)
	if future != nil {
		st.future = append([]float64(nil), future...)
	} else {
		st.future = make([]float64, len(res.Shocks))
		for si := range res.Shocks {
			st.future[si] = futureStrength(res.Shocks[si].Strength)
		}
	}
	for len(st.future) < len(res.Shocks) {
		st.future = append(st.future, 0)
	}
	for _, v := range seq {
		st.advance(res.Shocks, v)
	}
	return st
}

// advance extends the simulation by one tick: materialise any occurrence
// strength that begins at or before the new tick, derive ε(t), step the SIV
// recurrence, and record the (state, simulation, residual) rings. O(#shocks)
// per call.
func (st *incState) advance(shocks []Shock, raw float64) {
	t := st.head
	// A cyclic occurrence past the fitted window gets the projected future
	// strength the moment it begins, written into the shock's own strength
	// row — so the persisted snapshot carries it and a restored stream sees
	// exactly the ε(t) the live stream used.
	for si := range shocks {
		sh := &shocks[si]
		if m := sh.OccurrenceAt(t); m >= 0 {
			for len(sh.Strength) <= m {
				sh.Strength = append(sh.Strength, st.future[si])
			}
		}
	}
	if norm := st.record(t, shocks, raw); norm > st.normMax {
		st.normMax = norm
	}
	st.head++
}

// record steps tick t from cur under the shocks' ε(t), files the state
// entering it with its simulated output and residual in the rings, and
// returns the normalised observation (NaN when unusable).
func (st *incState) record(t int, shocks []Shock, raw float64) float64 {
	r := t % st.w
	st.states[r] = st.cur
	out := st.sim[r : r+1]
	st.cur = st.run(st.cur, t, epsilonInto(out, t, shocks, true, nil), out)
	norm := st.normObs(raw)
	st.resid[r] = norm - st.sim[r]
	return norm
}

// normObs maps a raw observation into the fit's normalised space; NaN marks
// a tick without a usable observation (missing, ±Inf or negative).
func (st *incState) normObs(raw float64) float64 {
	if tensor.IsMissing(raw) || math.IsInf(raw, 0) || raw < 0 {
		return math.NaN()
	}
	if st.scale > 0 {
		return raw / st.scale
	}
	return raw
}

// forecast steps the recurrence h ticks past the head from cur, with ε(t)
// projected past each cyclic shock's strength row, and returns N·i(t) for
// each of those ticks: O(h·#shocks) work, one allocation, and no writes to
// the state or the shocks. p is the fit's raw parameters; its kernel differs
// from the embedded one only in N, which scales the output and never the
// state, so the result is the tail of the batch simulation ForecastGlobal
// runs over the whole window.
func (st *incState) forecast(shocks []Shock, p *KeywordParams, h int) []float64 {
	out := epsilonInto(make([]float64, h), st.head, shocks, true, nil)
	raw := newKernel(p, -1)
	raw.run(st.cur, st.head, out, out)
	return out
}

// rebuildFrom re-simulates ticks [t0, head) after a shock-set change. t0
// must lie inside the state ring; callers guarantee that by only committing
// changes whose affected range starts inside the tail window. O(TailWindow).
func (st *incState) rebuildFrom(seq []float64, shocks []Shock, t0 int) {
	st.cur = st.states[t0%st.w]
	for t := t0; t < len(seq); t++ {
		st.record(t, shocks, seq[t])
	}
	st.head = len(seq)
}

// tailLo returns the first tick of the current tail window.
func (st *incState) tailLo() int {
	lo := st.head - st.w
	if lo < 0 {
		lo = 0
	}
	return lo
}

// tailResiduals copies the tail residual ring into a contiguous scratch
// slice ordered by tick.
func (st *incState) tailResiduals() []float64 {
	lo := st.tailLo()
	st.scratch = st.scratch[:0]
	for t := lo; t < st.head; t++ {
		st.scratch = append(st.scratch, st.resid[t%st.w])
	}
	return st.scratch
}

// tailSeedLevel mirrors shockSeedLevel for the tail window: well above the
// tail noise floor and a noticeable fraction of the (normalised) signal.
func tailSeedLevel(resid []float64, normMax float64) float64 {
	_, sigma2 := mdl.ResidualNoise(resid)
	noise := 2 * math.Sqrt(sigma2)
	signal := 0.08 * normMax
	if noise > signal {
		return noise
	}
	return signal
}

// scanTail is the incremental shock-discovery pass: examine the tail
// residuals for the dominant positive run and either (a) refit the strength
// of the known shock occurrence covering it, or (b) propose, fit, and
// MDL-gate a new one-shot shock. All work is O(TailWindow); each distinct
// peak is examined once (lastScan suppresses re-examination until the peak
// moves). Returns whether the shock set changed.
func (s *Stream) scanTail() bool {
	if s.opts.DisableShocks {
		return false
	}
	st := s.inc
	n := st.head
	lo := st.tailLo()
	if n-lo < 16 {
		return false // not enough tail context to judge a run
	}
	resid := st.tailResiduals()
	level := tailSeedLevel(resid, st.normMax)
	peaks := stats.FindPeaks(resid, level)
	if len(peaks) == 0 {
		return false
	}
	peak := peaks[0]
	t0 := lo + peak.Start
	if t0 == s.lastScan {
		return false
	}
	apex := lo + peak.Apex

	// A known shock already covers the apex (with a two-tick lag allowance —
	// the output response trails the ε window): the event recurred at a
	// different magnitude than projected — refit that occurrence's strength
	// in place instead of stacking a new shock on top of it.
	for lag := 0; lag <= 2; lag++ {
		for si := range s.result.Shocks {
			sh := &s.result.Shocks[si]
			if m := sh.OccurrenceAt(apex - lag); m >= 0 {
				s.refineOccurrence(si, m)
				s.lastScan = t0
				return true
			}
		}
	}

	if len(s.result.Shocks) >= s.opts.withDefaults().MaxShocks {
		s.lastScan = t0
		s.debt += debtRejectedPeak
		return false
	}

	width := peak.Width
	if width < 1 {
		width = 1
	}
	if maxW := st.w/8 + 1; width > maxW {
		width = maxW
	}
	// The SIV response trails the ε onset (a shock at tick t first moves the
	// output at t+1), so try a few anchors just before the residual run and
	// keep the best windowed fit — the same anchor jitter the batch fitter
	// applies to its candidates.
	var cand Shock
	bestSSE := math.Inf(1)
	for _, jit := range []int{-2, -1, 0} {
		a := t0 + jit
		if a < st.tailLo() || a < 0 {
			continue
		}
		w := width - jit
		if maxW := st.w/4 + 1; w > maxW {
			w = maxW
		}
		c := Shock{Keyword: 0, Period: NonCyclic, Start: a, Width: w}
		str, sse := s.fitTailStrength(&c, a)
		if str > 0 && sse < bestSSE {
			c.Strength = []float64{str}
			cand, bestSSE = c, sse
		}
	}
	accepted := false
	if !math.IsInf(bestSSE, 1) {
		// Judge the candidate at the QUIET noise level — the peak's own ticks
		// are masked out of the estimate. Letting the burst inflate σ² would
		// make it look like cheap noise over a 52-tick window (the batch gate
		// escapes this only because inflation penalises all n residuals).
		quiet := make([]float64, len(resid))
		copy(quiet, resid)
		for i := peak.Start; i < peak.Start+peak.Width && i < len(quiet); i++ {
			quiet[i] = math.NaN()
		}
		muQ, sigma2Q := mdl.ResidualNoise(quiet)
		accepted = s.acceptTailShock(cand, cand.Start, resid, muQ, sigma2Q)
	}
	s.lastScan = t0
	if !accepted {
		s.debt += debtRejectedPeak
		return false
	}
	s.result.Shocks = append(s.result.Shocks, cand)
	s.inc.future = append(s.inc.future, futureStrength(cand.Strength))
	st.rebuildFrom(s.seq, s.result.Shocks, cand.Start)
	s.debt += debtTailShock
	return true
}

// refineOccurrence golden-refits one occurrence strength of a known shock
// against the tail residuals, committing the result into the shock's
// strength row (and the persisted snapshot with it). Occurrences whose
// window starts before the state ring cannot be re-simulated incrementally
// and are left to the next full refit.
func (s *Stream) refineOccurrence(si, m int) {
	st := s.inc
	sh := &s.result.Shocks[si]
	ostart := sh.OccurrenceStart(m)
	if ostart < st.tailLo() || m >= len(sh.Strength) {
		s.debt += debtRejectedPeak
		return
	}
	save := sh.Strength[m]
	obj := func(str float64) float64 {
		sh.Strength[m] = str
		return s.tailSSEFrom(ostart)
	}
	best, _, _ := goldenStrength(obj)
	sh.Strength[m] = save
	if best < 1e-3 {
		best = 0
	}
	if math.Abs(best-save) < 1e-9 {
		return // already right; nothing to commit or rebuild
	}
	sh.Strength[m] = best
	st.future[si] = futureStrength(sh.Strength)
	st.rebuildFrom(s.seq, s.result.Shocks, ostart)
	s.debt += debtTailShock
}

// fitTailStrength golden-fits a candidate one-shot shock's strength over
// the tail window, returning the strength and its SSE. The candidate must
// start inside the state ring.
func (s *Stream) fitTailStrength(cand *Shock, t0 int) (float64, float64) {
	working := make([]Shock, len(s.result.Shocks)+1)
	copy(working, s.result.Shocks)
	cand.Strength = []float64{0}
	working[len(working)-1] = *cand
	self := &working[len(working)-1]
	obj := func(str float64) float64 {
		self.Strength[0] = str
		return s.tailSSEWith(working, t0)
	}
	best, sse, _ := goldenStrength(obj)
	if best < 1e-3 {
		return 0, sse
	}
	return best, sse
}

// goldenStrength is the shared bounded golden search over one strength.
// Incremental maintenance is bounded-time by construction, so it runs
// uncancellable (nil ctx): there is no long fit to interrupt.
func goldenStrength(obj func(float64) float64) (float64, float64, error) {
	return optimize.GoldenCtx(nil, obj, 0, maxShockStrength, 1e-3, 60)
}

// tailSSEFrom simulates [t0, head) with the current shock set from the ring
// checkpoint at t0 and returns the SSE against the observed tail. Used by
// the strength refiner; does not mutate the rings.
func (s *Stream) tailSSEFrom(t0 int) float64 {
	return s.tailSSEWith(s.result.Shocks, t0)
}

// tailSSEWith is tailSSEFrom under an alternative shock set: it steps a
// copy of the ring checkpoint at t0, leaving the stream state untouched.
func (s *Stream) tailSSEWith(shocks []Shock, t0 int) float64 {
	st := s.inc
	x := st.states[t0%st.w]
	var out [1]float64
	sse := 0.0
	for t := t0; t < st.head; t++ {
		x = st.run(x, t, epsilonInto(out[:], t, shocks, true, nil), out[:])
		if norm := st.normObs(s.seq[t]); !math.IsNaN(norm) {
			d := norm - out[0]
			sse += d * d
		}
	}
	return sse
}

// acceptTailShock applies the incremental MDL gate: the candidate is kept
// only when the Gaussian coding cost of the tail residuals — judged at the
// caller-supplied quiet noise level (μ, σ²), not one the burst itself
// inflates — drops by more than the added model description cost. The gate
// is a tail-window approximation of the batch fitter's full-window gate,
// with the debt-scheduled full refit as the authority that later re-judges
// everything it admits.
func (s *Stream) acceptTailShock(cand Shock, t0 int, tailResid []float64, muQ, sigma2Q float64) bool {
	st := s.inc
	lo := st.tailLo()
	n := st.head
	costWithout := mdl.GaussianCostFixed(tailResid, muQ, sigma2Q) + costShockTensor(s.result.Shocks, 1, 1, n)
	with := make([]Shock, len(s.result.Shocks)+1)
	copy(with, s.result.Shocks)
	with[len(with)-1] = cand

	// Residuals with the candidate applied: identical to the current tail
	// before t0, re-simulated after.
	residWith := append([]float64(nil), tailResid...)
	x := st.states[t0%st.w]
	var out [1]float64
	for t := t0; t < n; t++ {
		x = st.run(x, t, epsilonInto(out[:], t, with, true, nil), out[:])
		residWith[t-lo] = st.normObs(s.seq[t]) - out[0]
	}
	costWith := mdl.GaussianCostFixed(residWith, muQ, sigma2Q) + costShockTensor(with, 1, 1, n)
	return costWith < costWithout-1e-9
}
