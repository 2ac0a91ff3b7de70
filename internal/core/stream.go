package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dspot/internal/tensor"
)

// Incremental fitting: online activity streams grow one tick at a time, and
// refitting from scratch on every arrival wastes the work already done.
// ContinueGlobalSequence warm-starts from a previous fit — base parameters
// seed the LM search, previously discovered shocks are kept (their
// occurrence lists extended into the new window) and only *new* shocks are
// searched for — and Stream wraps this into an append-and-refit API.

// scaleDriftLimit is the normalisation-scale ratio (either direction)
// beyond which a warm-started refit cross-checks itself against a cold fit:
// past it, the carried shock set was judged under a materially different
// residual normalisation and the warm basin may no longer be the best one.
const scaleDriftLimit = 1.25

// ContinueGlobalSequence refits keyword's single-sequence model on an
// extended sequence, warm-starting from prev (typically the result of
// FitGlobalSequence on a prefix). The sequence may have grown and may have
// revised recent values; it must be at least as long as it was when prev
// was fitted.
func ContinueGlobalSequence(seq []float64, keyword int, prev GlobalFitResult, opts FitOptions) (res GlobalFitResult, err error) {
	opts = opts.withDefaults()
	defer recoverFitPanic(opts, keyword, -1, &err)
	st, err := newSequenceFit(seq, keyword, opts, newWorkerSlots(opts.Workers-1))
	if err != nil {
		return GlobalFitResult{}, err
	}
	n, scale := st.n, st.scale
	st.params = prev.Params
	if scale > 0 {
		st.params.N = prev.Params.N / scale // back into normalised space
	}
	// Carry the previous shocks into the longer window: each cyclic shock
	// gains occurrences, seeded with its projected future strength — the
	// projection the forecaster and a stream's checkpoint also give an
	// occurrence its fit never saw. The strengths transfer *verbatim* even
	// when the normalisation scale changed: output = N·i(t) and the s/i/v
	// fraction dynamics never see N, so a rescaled window is absorbed
	// entirely by N (divided below) while β, δ, γ, i0, η and the shock
	// strengths are dimensionless (TestWarmStartStrengthsScaleInvariant pins
	// this — rescaling them by prev.Scale/scale demonstrably worsens the
	// warm start).
	for _, s := range prev.Shocks {
		if s.Start >= n || s.Width <= 0 {
			continue
		}
		occ := s.Occurrences(n)
		strengths := make([]float64, occ)
		future := futureStrength(s.Strength)
		for m := range strengths {
			if m < len(s.Strength) {
				strengths[m] = s.Strength[m]
			} else {
				strengths[m] = future
			}
		}
		s.Strength = strengths
		s.Local = nil
		st.shocks = append(st.shocks, s)
	}

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
			st.refineStrengthsAll()
			st.growShocks() // keep existing shocks, look for new ones only
			st.pruneZeroShocks()
			st.consolidateShocks() // merge phase-aligned one-shots into cycles
			st.refineStrengths()
		}
		if st.cancelled() {
			break
		}
		c := st.cost()
		if c < bestCost-1e-9 {
			bestCost = c
			best = st.snapshot()
		} else {
			break
		}
	}
	if err := st.stopErr("refit"); err != nil {
		return GlobalFitResult{}, err
	}

	// Scale-drift guard. What does NOT transfer across a rescaled window is
	// the MDL balance: residual coding cost is computed on [0,1]-normalised
	// residuals, so when the window max grows (or shrinks) materially, the
	// residual landscape the previous shocks were judged under shifts — and
	// the warm search, which only ever adds shocks to the carried set, can
	// stay stuck in the stale basin at a worse cost than a cold fit finds.
	// When the scale drifted past scaleDriftLimit, run the cold fit too and
	// keep whichever explains the data more cheaply; the costs are directly
	// comparable (same normalised sequence, same coding scheme).
	if prev.Scale > 0 && scale > 0 {
		drift := scale / prev.Scale
		if drift < 1 {
			drift = 1 / drift
		}
		if drift > scaleDriftLimit {
			if cold, cerr := FitGlobalSequence(seq, keyword, opts); cerr == nil && cold.Cost < bestCost-1e-9 {
				return cold, nil
			}
		}
	}

	return st.result(best, bestCost, rounds)
}

// refineStrengthsAll re-fits every occurrence strength by windowed golden
// search — cheap polish for strengths seeded from historical means. Each
// search re-simulates only the occurrence's own span, from a checkpoint
// that one kernel run over the ticks before it provides.
func (g *gfit) refineStrengthsAll() {
	g.epsBuf = epsilonInto(ensureLen(g.epsBuf, g.n), 0, g.shocks, false, nil)
	g.simBuf = ensureLen(g.simBuf, g.n)
	k := newKernel(&g.params, -1)
	for si := range g.shocks {
		s := &g.shocks[si]
		for m := range s.Strength {
			if g.cancelled() {
				return
			}
			lo := s.OccurrenceStart(m)
			if lo >= g.n {
				continue
			}
			ckpt := k.run(k.x0, 0, g.epsBuf[:lo], g.simBuf[:lo])
			g.searchStrength(&k, ckpt, g.shocks, s, m, maxShockStrength)
		}
	}
}

// Stream maintains a Δ-SPOT single-sequence model over an append-only
// series. Once fitted, it folds every appended tick into the model by
// stepping the SIV kernel from a checkpoint (incremental.go) and amortises
// the full warm-start refit behind a refit-debt counter. The RefitMode is
// the debt policy: RefitBatch charges one unit per tick against a limit of
// RefitEvery, the classic refit cadence; RefitIncremental also re-scans the
// tail for new shocks and charges structural events extra.
type Stream struct {
	opts       FitOptions
	refitEvery int
	mode       RefitMode
	cfg        IncrementalConfig

	seq    []float64
	result GlobalFitResult

	// Maintenance state. inc is derived — nil until the first fit, rebuilt
	// from seq+result on refit and restore — while debt and lastScan are
	// decision state that must persist for bit-identical continuation.
	debt     float64
	lastScan int
	inc      *incState

	// Refit retry backoff: failures counts consecutive refit errors,
	// coolOff is how many more appended ticks to wait before the next
	// attempt. Cancelled refits are exempt (retried on next trigger).
	failures int
	coolOff  int

	// Bounded-memory state (evict.go): retention is the sliding-window
	// horizon in ticks (0 = unbounded) and evicted counts ticks dropped off
	// the front, so Head() = evicted + len(seq) is the absolute tick index
	// appends continue at.
	retention int
	evicted   int64

	// Hostile-input accounting (AppendAtCtx): duplicate ticks idempotently
	// dropped and missing ticks synthesised to bridge forward gaps.
	dropped   int64
	gapFilled int64

	// Refit desynchronisation (see RefitGate): jitterFrac deterministically
	// staggers this stream's refit trigger, gate rate-limits consolidations
	// across a fleet, deferred counts refits the gate pushed back.
	jitterFrac float64
	gate       RefitGate
	deferred   int64
}

// RefitGate rate-limits full consolidating refits across a fleet of
// streams. TryAcquire reserves a refit slot: ok=false defers the refit —
// the stream keeps its accrued debt/cadence overshoot and tries again on
// the next append — and ok=true obliges the caller to invoke release once
// the refit returns. Implementations must be safe for concurrent use.
// RefitNow bypasses the gate: a forced refit is explicit operator intent.
type RefitGate interface {
	TryAcquire() (release func(), ok bool)
}

// SetRefitGate installs the cross-stream refit rate limiter (nil removes
// it). Runtime wiring, not part of the serialisable state.
func (s *Stream) SetRefitGate(g RefitGate) { s.gate = g }

// SetRefitJitter sets the deterministic trigger-jitter fraction in [0,1)
// that debtJitter scales, so a fleet of streams created (or restored)
// together consolidates staggered instead of in lockstep. Out-of-range
// values reset to 0 (exact cadence, the historical behaviour).
func (s *Stream) SetRefitJitter(frac float64) {
	if frac < 0 || frac >= 1 || math.IsNaN(frac) {
		frac = 0
	}
	s.jitterFrac = frac
}

// debtJitter is the refit trigger offset in debt units: ⌊frac·RefitEvery/2⌋
// whole ticks under RefitBatch, frac·DebtLimit/4 under RefitIncremental.
// The batch offset must not shrink: a persisted tick log holds no record
// that attempted a refit, so it runs up to the trigger it was written under
// and must replay without crossing an earlier one.
func (s *Stream) debtJitter() float64 {
	if s.mode == RefitBatch {
		return float64(int(s.jitterFrac * float64(s.refitEvery) / 2))
	}
	return s.jitterFrac * s.DebtLimit() / 4
}

// DroppedTicks returns how many duplicate/late ticks AppendAtCtx has
// idempotently dropped so far.
func (s *Stream) DroppedTicks() int64 { return s.dropped }

// GapTicks returns how many missing ticks AppendAtCtx has synthesised to
// bridge forward gaps.
func (s *Stream) GapTicks() int64 { return s.gapFilled }

// DeferredRefits returns how many due refits the gate pushed back.
func (s *Stream) DeferredRefits() int64 { return s.deferred }

// NewStream returns a stream under the RefitBatch debt policy: once fitted,
// it refits after every refitEvery appended ticks (default 26). The fitting
// options apply to every (re)fit.
func NewStream(opts FitOptions, refitEvery int) *Stream {
	if refitEvery <= 0 {
		refitEvery = 26
	}
	return &Stream{
		opts:       opts,
		refitEvery: refitEvery,
		cfg:        IncrementalConfig{}.withDefaults(),
		lastScan:   -1,
	}
}

// NewIncrementalStream returns a stream under the RefitIncremental debt
// policy: appends do O(cfg.TailWindow) work per tick and a full batch refit
// fires only when the accumulated refit debt crosses the limit (or via
// RefitNow). refitEvery is the debt unit (default 26); the zero cfg selects
// defaults.
func NewIncrementalStream(opts FitOptions, refitEvery int, cfg IncrementalConfig) *Stream {
	s := NewStream(opts, refitEvery)
	s.mode = RefitIncremental
	s.cfg = cfg.withDefaults()
	return s
}

// Mode returns the stream's debt policy.
func (s *Stream) Mode() RefitMode { return s.mode }

// RefitEvery returns the effective refit cadence (the RefitBatch debt
// limit) / debt unit (RefitIncremental).
func (s *Stream) RefitEvery() int { return s.refitEvery }

// SetRefitEvery changes the refit cadence; non-positive values are ignored.
func (s *Stream) SetRefitEvery(v int) {
	if v > 0 {
		s.refitEvery = v
	}
}

// SetMode switches the debt policy in place, in O(1): the checkpoint is
// kept, and pending refit debt and the tail-scan position are cleared, so
// the new policy starts from a clean slate.
func (s *Stream) SetMode(m RefitMode) {
	if m == s.mode {
		return
	}
	s.mode = m
	s.debt = 0
	s.lastScan = -1
}

// Debt returns the accumulated refit debt.
func (s *Stream) Debt() float64 { return s.debt }

// DebtLimit returns the effective debt threshold at which a full batch
// refit fires: RefitEvery under RefitBatch; under RefitIncremental the
// configured limit, or 8×RefitEvery (at least 2×TailWindow) when unset.
func (s *Stream) DebtLimit() float64 {
	if s.mode == RefitBatch {
		return float64(s.refitEvery)
	}
	if s.cfg.DebtLimit > 0 {
		return s.cfg.DebtLimit
	}
	lim := 8 * float64(s.refitEvery)
	if m := 2 * float64(s.cfg.TailWindow); lim < m {
		lim = m
	}
	return lim
}

// RetryIn returns how many more appended ticks a failed refit backs off
// for (0 when no backoff is pending).
func (s *Stream) RetryIn() int { return s.coolOff }

// Append adds observations; pass tensor.Missing for gaps. It reports
// whether a *full* batch (re)fit happened.
//
// The first fit happens once 8 observed ticks accumulated. After it, every
// appended tick is folded into the model: the ε(t) profile and the SIV
// simulation are extended one tick from a checkpointed state, and the tick
// accrues one unit of refit debt until the debt crosses DebtLimit and one
// consolidating batch refit runs (Append then returns true) — O(n) per
// refit. Under RefitBatch that is the whole contract, and the refit fires
// every RefitEvery ticks. Under RefitIncremental the trailing TailWindow
// residuals are also re-scanned for new shocks (discovered one-shots are
// strength-fitted and MDL-gated in the tail window; recurring occurrences
// of known shocks get their strength refitted in place), all in
// O(TailWindow), and structural events accrue extra debt. RefitNow forces
// the consolidation on demand.
func (s *Stream) Append(values ...float64) (refitted bool, err error) {
	return s.AppendCtx(nil, values...)
}

// AppendReceipt reports what one positioned append actually did — the
// serving layer turns these into per-stream metrics.
type AppendReceipt struct {
	// Refitted reports whether a full batch (re)fit ran (Append's bool).
	Refitted bool
	// Deferred reports that a refit was due but the RefitGate pushed it
	// back; the accrued debt is kept.
	Deferred bool
	// DroppedTicks counts duplicate/late ticks idempotently dropped.
	DroppedTicks int
	// GapTicks counts missing ticks synthesised to bridge a forward gap.
	GapTicks int
	// EvictedTicks counts ticks evicted off the front by the retention
	// horizon during this append.
	EvictedTicks int
}

// ErrGapTooLarge rejects a positioned append whose forward gap would force
// the stream to synthesise more missing ticks than its gap limit allows.
var ErrGapTooLarge = errors.New("core: gap exceeds the stream's gap limit")

// gapLimit bounds how many missing ticks a single positioned append may
// synthesise: a bounded stream accepts up to 4 retention windows (anything
// further means every real tick has already slid out), an unbounded one
// caps at 64Ki so a hostile timestamp cannot allocate without limit.
func (s *Stream) gapLimit() int64 {
	if s.retention > 0 {
		return int64(4 * s.retention)
	}
	return 1 << 16
}

// AppendCtx is Append under a cancellation context covering any full refit
// the append triggers (nil behaves like Append; a non-nil ctx overrides the
// stream options' Context for this call). The appended ticks are always
// kept. When a refit fails — including a cancelled or timed-out refit —
// the last good fit is preserved: Model, Forecast and the next warm start
// all keep using it. A failed (non-cancelled) refit backs off
// exponentially: the retry waits RefitEvery ticks, then 2×, 4×, … (capped
// at 64×), so a stream with poisoned data degrades to cheap appends
// instead of paying a doomed full fit per tick; appends during the
// back-off window return (false, nil). Cancelled refits retry on the next
// trigger as before.
func (s *Stream) AppendCtx(ctx context.Context, values ...float64) (refitted bool, err error) {
	rec, err := s.AppendAtCtx(ctx, -1, values...)
	return rec.Refitted, err
}

// AppendAtCtx appends values positioned at absolute tick index at (at < 0
// means "at the head", i.e. plain AppendCtx). Positioned appends make
// replayed, late and gapped feeds safe to ingest idempotently:
//
//   - at < Head(): the overlap with already-ingested ticks is dropped — a
//     full replay is a no-op success, a partial one appends only the novel
//     suffix. Late data never rewrites history.
//   - at > Head(): the gap is bridged with tensor.Missing ticks, up to the
//     gap limit (4 retention windows, or 64Ki when unbounded); a larger gap
//     fails with ErrGapTooLarge and ingests nothing.
//
// After ingestion the retention horizon is enforced (see SetRetention) and
// the usual refit triggers run, offset by the configured jitter and subject
// to the RefitGate; the receipt reports each of these outcomes.
func (s *Stream) AppendAtCtx(ctx context.Context, at int64, values ...float64) (AppendReceipt, error) {
	var rec AppendReceipt
	if at >= 0 {
		head := s.Head()
		if overlap := head - at; overlap > 0 {
			if overlap >= int64(len(values)) {
				s.dropped += int64(len(values))
				rec.DroppedTicks = len(values)
				return rec, nil
			}
			s.dropped += overlap
			rec.DroppedTicks = int(overlap)
			values = values[overlap:]
		} else if gap := at - head; gap > 0 {
			if lim := s.gapLimit(); gap > lim {
				return rec, fmt.Errorf("%w: append at tick %d with head %d needs %d filler ticks (limit %d)",
					ErrGapTooLarge, at, head, gap, lim)
			}
			fill := make([]float64, gap+int64(len(values)))
			for i := int64(0); i < gap; i++ {
				fill[i] = tensor.Missing
			}
			copy(fill[gap:], values)
			values = fill
			s.gapFilled += gap
			rec.GapTicks = int(gap)
		}
	}
	if len(values) == 0 {
		return rec, nil
	}
	if s.inc != nil {
		s.appendIncremental(values)
	} else {
		s.appendBulk(values)
	}
	rec.EvictedTicks = s.maybeEvict()
	if s.coolOff > 0 {
		s.coolOff -= len(values)
		if s.coolOff > 0 {
			return rec, nil
		}
		s.coolOff = 0
	}
	if s.inc == nil {
		if tensor.ObservedCount(s.seq) < 8 {
			return rec, nil
		}
	} else if s.debt < s.DebtLimit()+s.debtJitter() {
		return rec, nil
	}
	if s.gate != nil {
		release, ok := s.gate.TryAcquire()
		if !ok {
			s.deferred++
			rec.Deferred = true
			return rec, nil
		}
		defer release()
	}
	var err error
	rec.Refitted, err = s.refitFull(ctx)
	return rec, err
}

// appendIncremental folds new ticks into a fitted stream: extend the
// simulation per tick and accrue debt, then, under RefitIncremental,
// re-scan the tail once for new structure. Invalid observations (negative /
// ±Inf) are treated as missing here and left for the next full refit's
// validator to report.
func (s *Stream) appendIncremental(values []float64) {
	st := s.inc
	scan := s.mode == RefitIncremental // RefitBatch: +1 debt per tick, nothing more
	for _, v := range values {
		s.appendTick(v)
		st.advance(s.result.Shocks, v)
		s.debt++
		if scan && st.scale > 0 && st.normObs(v) > 1 {
			// Observation beyond the fitted normalisation scale: the [0,1]
			// normalisation no longer covers the data, pull the refit closer.
			s.debt += debtStaleScale
		}
	}
	if scan {
		s.scanTail()
	}
}

// refitFull runs the batch fitter (cold the first time, warm-started
// afterwards) and commits the result. Fit into a temporary: assigning
// s.result directly would clobber the warm-start state with the zero
// GlobalFitResult on error while the checkpoint stayed, leaving
// Model()/Forecast() serving a zero-params model.
func (s *Stream) refitFull(ctx context.Context) (bool, error) {
	opts := s.opts
	if ctx != nil {
		opts.Context = ctx
	}
	var res GlobalFitResult
	var err error
	if s.inc == nil {
		res, err = FitGlobalSequence(s.seq, 0, opts)
	} else {
		res, err = ContinueGlobalSequence(s.seq, 0, s.result, opts)
	}
	if err != nil {
		s.noteRefitError(err)
		return false, err
	}
	s.commitFit(res)
	return true, nil
}

// commitFit installs a fresh batch fit, resets all maintenance state and
// rebuilds the checkpoint from the fit (O(n), the amortised cost the debt
// counter paid for).
func (s *Stream) commitFit(res GlobalFitResult) {
	s.result = res
	s.debt = 0
	s.failures = 0
	s.coolOff = 0
	s.lastScan = -1
	s.inc = newIncState(s.seq, &s.result, nil, s.cfg.TailWindow)
}

// noteRefitError applies the exponential retry backoff after a failed
// refit. Cooperative cancellation is not a model failure — the caller chose
// to stop — so it keeps the historical retry-on-next-trigger behaviour.
func (s *Stream) noteRefitError(err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	s.failures++
	shift := s.failures - 1
	if shift > 6 {
		shift = 6 // cap the spacing at 64×RefitEvery ticks
	}
	unit := s.refitEvery
	if unit < 1 {
		unit = 1
	}
	s.coolOff = unit << shift
}

// RefitNow forces a full batch refit immediately, regardless of cadence,
// pending debt or retry backoff. The stream must have at least 8 observed
// ticks.
func (s *Stream) RefitNow(ctx context.Context) error {
	if tensor.ObservedCount(s.seq) < 8 {
		return errors.New("core: sequence too short to fit")
	}
	_, err := s.refitFull(ctx)
	return err
}

// Len returns the number of ticks appended so far.
func (s *Stream) Len() int { return len(s.seq) }

// Ready reports whether a model has been fitted yet.
func (s *Stream) Ready() bool { return s.inc != nil }

// Model materialises the current fit as a single-keyword Model (nil when
// not Ready). The shocks are deep-copied: callers may mutate the returned
// model freely without corrupting the warm-start state the next refit
// builds on. Ticks spans the whole appended sequence, past the last (re)fit
// window: the checkpoint materialises every occurrence it reaches
// (incState.advance), so each shock carries a strength for every
// occurrence the window holds.
func (s *Stream) Model() *Model {
	if s.inc == nil {
		return nil
	}
	return &Model{
		Keywords:  []string{"stream"},
		Locations: []string{"all"},
		Ticks:     len(s.seq),
		Global:    []KeywordParams{s.result.Params},
		Shocks:    CopyShocks(s.result.Shocks),
		Scale:     []float64{s.result.Scale},
	}
}

// CopyShocks deep-copies a shock slice, including the Strength and Local
// slices that a shallow copy would share.
func CopyShocks(shocks []Shock) []Shock {
	if shocks == nil {
		return nil
	}
	out := make([]Shock, len(shocks))
	for i, s := range shocks {
		s.Strength = append([]float64(nil), s.Strength...)
		if s.Local != nil {
			local := make([][]float64, len(s.Local))
			for m, row := range s.Local {
				local[m] = append([]float64(nil), row...)
			}
			s.Local = local
		}
		out[i] = s
	}
	return out
}

// StreamState is the serialisable snapshot of a Stream: everything needed
// to reconstruct it elsewhere (or after a restart) via RestoreStream. All
// slices are deep copies — mutating a state does not touch the stream.
type StreamState struct {
	RefitEvery int
	Seq        []float64 // appended ticks; tensor.Missing marks gaps
	Fitted     bool
	Result     GlobalFitResult

	// SinceRefit is read, never written: snapshots from before every
	// stream kept a checkpoint counted a batch stream's ticks since its
	// last refit here, and RestoreStream takes a fitted one's as the
	// RefitBatch debt.
	SinceRefit int

	// Maintenance state. Zero values are exactly what a legacy batch
	// snapshot decodes to: the RefitBatch policy with no pending debt but
	// SinceRefit's, so old snapshots restore with their historical cadence.
	// The simulation rings themselves are NOT serialised — RestoreStream
	// rebuilds them deterministically from Seq+Result, and Future pins the
	// projected per-shock strengths so the rebuild is bit-identical to the
	// live stream.
	Mode       RefitMode
	TailWindow int
	DebtLimit  float64
	Debt       float64
	Failures   int
	CoolOff    int
	LastScan   int       // tail tick of the last examined residual peak; -1 = none
	Future     []float64 // per shock: projected strength for unseen occurrences

	// Bounded-memory and hostile-input bookkeeping. Zero values are again
	// the legacy decoding: an unbounded stream that never dropped or
	// synthesised a tick. The refit gate and jitter fraction are runtime
	// wiring, re-derived by the owner on restore, and not serialised.
	Retention int
	Evicted   int64
	Dropped   int64
	GapFilled int64
	Deferred  int64
}

// State snapshots the stream for persistence.
func (s *Stream) State() StreamState {
	res := s.result
	res.Shocks = CopyShocks(res.Shocks)
	st := StreamState{
		RefitEvery: s.refitEvery,
		Seq:        append([]float64(nil), s.seq...),
		Fitted:     s.inc != nil,
		Result:     res,
		Mode:       s.mode,
		TailWindow: s.cfg.TailWindow,
		DebtLimit:  s.cfg.DebtLimit,
		Debt:       s.debt,
		Failures:   s.failures,
		CoolOff:    s.coolOff,
		LastScan:   s.lastScan,
		Retention:  s.retention,
		Evicted:    s.evicted,
		Dropped:    s.dropped,
		GapFilled:  s.gapFilled,
		Deferred:   s.deferred,
	}
	if s.inc != nil {
		st.Future = append([]float64(nil), s.inc.future...)
	}
	return st
}

// RestoreStream reconstructs a stream from a snapshot taken with State.
// The fitting options are supplied by the caller (they hold a func hook and
// are not part of the serialisable state). A fitted stream replays its
// sequence once (O(n)) to rebuild the checkpoint and then continues
// bit-identically to the stream the snapshot was taken from, pending refit
// debt included.
func RestoreStream(opts FitOptions, st StreamState) *Stream {
	s := NewStream(opts, st.RefitEvery)
	s.mode = st.Mode
	s.cfg = IncrementalConfig{TailWindow: st.TailWindow, DebtLimit: st.DebtLimit}.withDefaults()
	s.seq = append([]float64(nil), st.Seq...)
	s.result = st.Result
	s.result.Shocks = CopyShocks(st.Result.Shocks)
	s.debt = st.Debt
	s.failures = st.Failures
	s.coolOff = st.CoolOff
	s.lastScan = st.LastScan
	s.SetRetention(st.Retention)
	s.evicted = st.Evicted
	s.dropped = st.Dropped
	s.gapFilled = st.GapFilled
	s.deferred = st.Deferred
	if st.Fitted {
		s.inc = newIncState(s.seq, &s.result, st.Future, s.cfg.TailWindow)
		if s.mode == RefitBatch {
			s.debt += float64(st.SinceRefit) // a legacy snapshot's cadence
		}
	}
	return s
}

// Forecast extrapolates h ticks past the stream head (nil when not Ready or
// h <= 0).
//
// A fitted stream already holds the SIV state entering its head tick, so
// it steps the recurrence h ticks on from a copy of that checkpoint:
// O(h·#shocks) work with one allocation, re-simulating none of the
// retained window (a tick in a projected cyclic occurrence also averages
// that shock's strength row). Forecast is read-only — it writes nothing to
// the stream — so concurrent Forecast calls need no lock among themselves;
// only Append and the other mutators need excluding. The result is
// bit-identical to Model().ForecastGlobal(0, h), which re-simulates the
// whole window from tick 0: the oracle TestStreamForecastMatchesModel
// holds this one to.
func (s *Stream) Forecast(h int) []float64 {
	if s.inc == nil || h <= 0 {
		return nil
	}
	return s.inc.forecast(s.result.Shocks, &s.result.Params, h)
}
