package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dspot/internal/core"
	"dspot/internal/engine"
	"dspot/internal/numcheck"
	"dspot/internal/obs/trace"
	"dspot/internal/tensor"
)

// stream is one named incremental series. Its mutex serialises appends and
// persistence per stream; fits run under it but never under the registry
// lock, so long refits on one stream do not stall the rest of the server.
type stream struct {
	id string

	mu     sync.Mutex
	s      *core.Stream
	refits int
	dead   bool // deleted: appends and refits answer ErrNotFound

	// Persistence with a data dir (ticklog.go): the open tick-log segment
	// (nil until the first compaction and after a failed write), why the
	// next persisted change must compact ("" = it may log a record),
	// segment files to remove after the next compaction, and the reused
	// record buffer.
	seg     *segment
	owed    string
	retired []string
	buf     []byte
}

// StreamStatus is the client-visible state of a stream, including the
// effective maintenance configuration (debt policy and cadence) so callers
// can tell whether a requested change actually took effect. Debt and
// DebtLimit say when the next consolidating refit fires, under either
// policy.
type StreamStatus struct {
	ID         string  `json:"id"`
	Len        int     `json:"len"`
	Ready      bool    `json:"ready"`
	Refits     int     `json:"refits"`
	Mode       string  `json:"mode"`
	RefitEvery int     `json:"refit_every"`
	Debt       float64 `json:"debt,omitempty"`
	DebtLimit  float64 `json:"debt_limit,omitempty"`
	RetryIn    int     `json:"retry_in,omitempty"` // ticks until a failed refit retries
	Refitted   bool    `json:"refitted,omitempty"` // set by AppendStream only

	// Bounded-memory and hostile-input accounting. Head is the absolute
	// tick index the next append lands on (Evicted + Len — it never
	// decreases); Dropped/GapFilled count duplicate ticks ignored and
	// missing ticks synthesised; Deferred counts refits the scheduler
	// pushed back.
	Head      int64 `json:"head,omitempty"`
	Retention int   `json:"retention,omitempty"`
	Evicted   int64 `json:"evicted_ticks,omitempty"`
	Dropped   int64 `json:"dropped_ticks,omitempty"`
	GapFilled int64 `json:"gap_filled_ticks,omitempty"`
	Deferred  int64 `json:"deferred_refits,omitempty"`
}

// AppendOptions carries per-append stream configuration. Zero values mean
// "leave as is": a positive RefitEvery (re)sets the cadence — on existing
// streams too, not only at creation — a non-empty Mode switches the debt
// policy ("batch" or "incremental") in O(1), and a positive Retention
// (re)bounds the stream's sliding window. AtSet positions the append at
// absolute tick index At: the overlap with already-ingested ticks is
// dropped idempotently and a forward gap is bridged with missing ticks
// (bounded — see core.Stream.AppendAtCtx).
type AppendOptions struct {
	RefitEvery int
	Mode       string
	Retention  int
	At         int64
	AtSet      bool
}

// streamJSON is the persisted snapshot. JSON cannot carry NaN, so the
// sequence is encoded with null marking missing ticks. The maintenance
// fields are omitted when zero, which is also how legacy batch snapshots —
// written before incremental maintenance existed — decode: mode "" maps to
// the RefitBatch policy, and since_refit, which only such snapshots carry,
// becomes its pending debt, preserving their historical cadence.
type streamJSON struct {
	RefitEvery int                   `json:"refit_every"`
	Seq        []*float64            `json:"seq"`
	Fitted     bool                  `json:"fitted"`
	Result     *core.GlobalFitResult `json:"result,omitempty"`
	SinceRefit int                   `json:"since_refit,omitempty"`
	Refits     int                   `json:"refits"`

	Mode       string     `json:"mode,omitempty"`
	TailWindow int        `json:"tail_window,omitempty"`
	DebtLimit  float64    `json:"debt_limit,omitempty"`
	Debt       float64    `json:"debt,omitempty"`
	Failures   int        `json:"refit_failures,omitempty"`
	CoolOff    int        `json:"refit_cooloff,omitempty"`
	LastScan   *int       `json:"last_scan,omitempty"` // nil = no peak examined yet (-1)
	Future     []*float64 `json:"future,omitempty"`    // projected per-shock strengths

	// Bounded-memory bookkeeping; zero (omitted) decodes legacy snapshots
	// as unbounded streams that never dropped a tick.
	Retention int   `json:"retention,omitempty"`
	Evicted   int64 `json:"evicted_ticks,omitempty"`
	Dropped   int64 `json:"dropped_ticks,omitempty"`
	GapFilled int64 `json:"gap_ticks,omitempty"`
	Deferred  int64 `json:"deferred_refits,omitempty"`

	// Log names the stream's live tick-log segment in the same directory;
	// its records replay on top of this snapshot. Empty in snapshots
	// written before the tick log existed, which load as they are.
	Log string `json:"log,omitempty"`
}

func (r *Registry) streamPath(id string) string {
	return filepath.Join(r.dir, streamsDir, id+".json")
}

// AppendStream appends ticks to the named stream, creating it on first use.
// opts.RefitEvery, when positive, sets the refit cadence — honored on
// existing streams too, with the effective value reported in the returned
// StreamStatus. opts.Mode ("batch"/"incremental") likewise switches the
// debt policy; "" keeps the current one. A full refit — when one
// triggers — runs outside the registry lock and under ctx (nil = never
// cancelled): a cancelled or timed-out refit stops cooperatively, keeps the
// stream's last good fit, and is retried per the stream's backoff schedule.
// With a data dir the append is durable before it returns: one fsynced
// tick-log record, or a fresh snapshot when the append compacts (see
// ticklog.go) — so a restart resumes the stream mid-series. Such a
// registry refuses Inf and negative values, which no snapshot may hold.
func (r *Registry) AppendStream(ctx context.Context, id string, values []float64, opts AppendOptions) (status StreamStatus, err error) {
	start := time.Now()
	refitted, compacted := false, false
	ctx, span := r.opts.Tracer.Start(ctx, "stream.append",
		trace.String("stream_id", id), trace.Int("ticks", len(values)))
	defer func() {
		path := "incremental"
		if refitted {
			path = "full"
		}
		r.opts.Metrics.streamAppend(path, time.Since(start))
		span.SetAttr("refitted", refitted)
		span.SetAttr("compacted", compacted)
		if err != nil {
			span.SetAttr("err", err.Error())
		}
		span.End()
	}()
	if err := ValidateID(id); err != nil {
		return StreamStatus{}, err
	}
	if len(values) == 0 {
		return StreamStatus{}, errors.New("registry: empty append")
	}
	mode, ok := core.ParseRefitMode(opts.Mode)
	if !ok {
		return StreamStatus{}, fmt.Errorf("%w: unknown stream mode %q", ErrBadRequest, opts.Mode)
	}
	if r.dir != "" {
		if err := numcheck.Sequence("append", values); err != nil {
			return StreamStatus{}, fmt.Errorf("%w: stream %q: %v", ErrBadRequest, id, err)
		}
	}
	st := r.getOrCreateStream(id, opts)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dead {
		return StreamStatus{}, fmt.Errorf("%w: stream %q", ErrNotFound, id)
	}
	refitEvery, oldMode, retention := st.s.RefitEvery(), st.s.Mode(), st.s.Retention()
	if opts.RefitEvery > 0 {
		st.s.SetRefitEvery(opts.RefitEvery)
	}
	if opts.Mode != "" {
		st.s.SetMode(mode)
	}
	if opts.Retention > 0 {
		st.s.SetRetention(opts.Retention)
	}
	if st.s.RefitEvery() != refitEvery || st.s.Mode() != oldMode || st.s.Retention() != retention {
		st.owe(compactOptions) // a record does not carry options
	}
	// The record carries a position even for a head append, so every
	// record replays as a positioned append at the same place.
	at, logAt := int64(-1), st.s.Head()
	if opts.AtSet {
		at = opts.At
		if at >= 0 {
			logAt = at
		}
	}
	rec, err := st.s.AppendAtCtx(ctx, at, values...)
	if errors.Is(err, core.ErrGapTooLarge) {
		r.opts.Metrics.streamRejected("gap_too_large", len(values))
		return StreamStatus{}, fmt.Errorf("%w: stream %q: %v", ErrBadRequest, id, err)
	}
	refitted = rec.Refitted
	if refitted {
		st.refits++
	}
	// Whether a refit was admitted, and how it ended, cannot be replayed.
	if err != nil || rec.Refitted || rec.Deferred {
		st.owe(compactRefit)
	}
	var perr error
	if r.dir != "" {
		// The ticks are kept even when the refit failed, so they are
		// persisted before that error returns.
		if compacted, perr = r.persist(st, logAt, values); perr != nil {
			r.logger().Error("registry: persisting stream", "id", id, "err", perr)
		}
	}
	if err != nil {
		return StreamStatus{}, fmt.Errorf("registry: stream %q: %w", id, err)
	}
	r.opts.Metrics.streamRejected("duplicate", rec.DroppedTicks)
	r.opts.Metrics.streamGapFilled(rec.GapTicks)
	r.opts.Metrics.streamEvicted(rec.EvictedTicks)
	if rec.Deferred {
		r.opts.Metrics.streamRefitDeferred()
	}
	if refitted {
		r.opts.Metrics.streamRefit()
	}
	status = st.statusLocked()
	status.Refitted = refitted
	if perr != nil {
		return status, fmt.Errorf("registry: persisting stream %q: %w", id, perr)
	}
	return status, nil
}

// RefitStream forces a full consolidating refit of the named stream now,
// regardless of cadence, pending debt or retry backoff. With a data dir the
// outcome is compacted into a fresh snapshot, failed refits included: the
// retry backoff they set is state too.
func (r *Registry) RefitStream(ctx context.Context, id string) (StreamStatus, error) {
	st, err := r.lookupStream(id)
	if err != nil {
		return StreamStatus{}, err
	}
	start := time.Now()
	ctx, span := r.opts.Tracer.Start(ctx, "stream.refit", trace.String("stream_id", id))
	defer span.End()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dead {
		return StreamStatus{}, fmt.Errorf("%w: stream %q", ErrNotFound, id)
	}
	err = st.s.RefitNow(ctx)
	if err == nil {
		st.refits++
	}
	var perr error
	if r.dir != "" {
		st.owe(compactRefit)
		_, perr = r.persist(st, 0, nil)
	}
	if err != nil {
		span.SetAttr("err", err.Error())
		return StreamStatus{}, fmt.Errorf("registry: stream %q: %w", id, err)
	}
	r.opts.Metrics.streamRefit()
	r.opts.Metrics.streamAppend("full", time.Since(start))
	status := st.statusLocked()
	status.Refitted = true
	if perr != nil {
		return status, fmt.Errorf("registry: persisting stream %q: %w", id, perr)
	}
	return status, nil
}

// statusLocked builds the client-visible status (st.mu held by the caller).
func (st *stream) statusLocked() StreamStatus {
	return StreamStatus{ID: st.id, Len: st.s.Len(), Ready: st.s.Ready(),
		Refits: st.refits, Mode: st.s.Mode().String(), RefitEvery: st.s.RefitEvery(),
		Debt: st.s.Debt(), DebtLimit: st.s.DebtLimit(), RetryIn: st.s.RetryIn(),
		Head: st.s.Head(), Retention: st.s.Retention(), Evicted: st.s.EvictedTicks(),
		Dropped: st.s.DroppedTicks(), GapFilled: st.s.GapTicks(),
		Deferred: st.s.DeferredRefits()}
}

func (r *Registry) getOrCreateStream(id string, opts AppendOptions) *stream {
	r.streamMu.Lock()
	defer r.streamMu.Unlock()
	if st, ok := r.streams[id]; ok {
		return st
	}
	refitEvery := opts.RefitEvery
	if refitEvery <= 0 {
		refitEvery = r.opts.RefitEvery
	}
	mode := opts.Mode
	if mode == "" {
		mode = r.opts.StreamMode
	}
	m, _ := core.ParseRefitMode(mode)
	s := core.NewIncrementalStream(r.opts.StreamFit, refitEvery, r.opts.StreamIncremental)
	s.SetMode(m)
	r.configureStream(id, s)
	st := &stream{id: id, s: s, owed: compactCreate}
	r.streams[id] = st
	r.opts.Metrics.setStreams(len(r.streams))
	return st
}

// StreamStatusFor returns the named stream's state.
func (r *Registry) StreamStatusFor(id string) (StreamStatus, error) {
	st, err := r.lookupStream(id)
	if err != nil {
		return StreamStatus{}, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.statusLocked(), nil
}

// StreamModel materialises the named stream's current model (nil until the
// first fit), engine-typed for the serving layer. Streams always fit with
// the Δ-SPOT core, so the result is a DspotModel. The model is a deep copy
// — safe to hand to encoders.
func (r *Registry) StreamModel(id string) (engine.Model, error) {
	st, err := r.lookupStream(id)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	m := st.s.Model()
	if m == nil {
		return nil, nil
	}
	return engine.NewDspotModel(m), nil
}

// StreamForecast extrapolates h ticks past the stream head (nil until the
// first fit).
func (r *Registry) StreamForecast(id string, h int) ([]float64, error) {
	st, err := r.lookupStream(id)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.s.Forecast(h), nil
}

// DeleteStream removes a stream from memory and disk. It waits for an
// append or refit in flight on the stream, whose handle then answers
// ErrNotFound, so nothing persists the stream again after its files are
// gone.
func (r *Registry) DeleteStream(id string) error {
	st, err := r.lookupStream(id)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dead {
		return fmt.Errorf("%w: stream %q", ErrNotFound, id)
	}
	st.dead = true
	var rerr error
	if r.dir != "" {
		// The snapshot goes before its segments: a crash in between strands
		// only segments, which the boot sweeps.
		r.closeSegment(st)
		if err := r.fs.Remove(r.streamPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			rerr = fmt.Errorf("registry: removing stream %q: %w", id, err)
		} else {
			r.removeRetired(st)
		}
	}
	// Only now may an append create a new stream under this id: its files
	// must not race the removal above.
	r.streamMu.Lock()
	delete(r.streams, id)
	r.opts.Metrics.setStreams(len(r.streams))
	r.streamMu.Unlock()
	return rerr
}

// ListStreams returns the status of every stream, sorted by id.
func (r *Registry) ListStreams() []StreamStatus {
	r.streamMu.Lock()
	streams := make([]*stream, 0, len(r.streams))
	for _, st := range r.streams {
		streams = append(streams, st)
	}
	r.streamMu.Unlock()
	out := make([]StreamStatus, 0, len(streams))
	for _, st := range streams {
		st.mu.Lock()
		out = append(out, st.statusLocked())
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (r *Registry) lookupStream(id string) (*stream, error) {
	r.streamMu.Lock()
	defer r.streamMu.Unlock()
	st, ok := r.streams[id]
	if !ok {
		return nil, fmt.Errorf("%w: stream %q", ErrNotFound, id)
	}
	return st, nil
}

// encodeStreamSnapshot renders st's whole state as snapshot JSON naming
// the segment log (st.mu held by the caller). Only compact calls it.
func encodeStreamSnapshot(st *stream, log string) ([]byte, error) {
	state := st.s.State()
	sj := streamJSON{
		RefitEvery: state.RefitEvery,
		Seq:        encodeSeq(state.Seq),
		Fitted:     state.Fitted,
		Refits:     st.refits,
		Mode:       "",
		TailWindow: state.TailWindow,
		DebtLimit:  state.DebtLimit,
		Debt:       state.Debt,
		Failures:   state.Failures,
		CoolOff:    state.CoolOff,
		Future:     encodeSeq(state.Future),
		Retention:  state.Retention,
		Evicted:    state.Evicted,
		Dropped:    state.Dropped,
		GapFilled:  state.GapFilled,
		Deferred:   state.Deferred,
		Log:        log,
	}
	if state.Mode != core.RefitBatch {
		sj.Mode = state.Mode.String()
	}
	if state.LastScan >= 0 {
		ls := state.LastScan
		sj.LastScan = &ls
	}
	if len(state.Future) == 0 {
		sj.Future = nil
	}
	if state.Fitted {
		res := state.Result
		sj.Result = &res
	}
	return json.Marshal(sj)
}

// restoreStream is the trust boundary for stream files (fuzzed by
// FuzzRestoreState): it parses a snapshot with decodeStreamState, restores
// the stream and holds a fitted one's model to the validation Put applies.
// Boot keeps the stream it returns, so it replays each checkpoint once.
func restoreStream(data []byte, opts core.FitOptions) (*core.Stream, int, string, error) {
	state, refits, log, err := decodeStreamState(data)
	if err != nil {
		return nil, 0, "", err
	}
	s := core.RestoreStream(opts, state)
	if state.Fitted {
		err = s.Model().Validate()
	}
	return s, refits, log, err
}

// decodeStreamState parses one persisted snapshot, returning the state, the
// refit count and the name of the segment to replay on top ("" for none).
// The decoded sequence must contain no Inf or negative counts (NaN is the
// missing sentinel and fine), and the segment must be a segment file name.
func decodeStreamState(data []byte) (core.StreamState, int, string, error) {
	var sj streamJSON
	if err := json.Unmarshal(data, &sj); err != nil {
		return core.StreamState{}, 0, "", err
	}
	mode, ok := core.ParseRefitMode(sj.Mode)
	if !ok {
		return core.StreamState{}, 0, "", fmt.Errorf("unknown stream mode %q", sj.Mode)
	}
	if _, ok := segmentOf(sj.Log); sj.Log != "" && !ok {
		return core.StreamState{}, 0, "", fmt.Errorf("bad segment name %q", sj.Log)
	}
	state := core.StreamState{
		RefitEvery: sj.RefitEvery,
		Seq:        decodeSeq(sj.Seq),
		Fitted:     sj.Fitted,
		SinceRefit: sj.SinceRefit,
		Mode:       mode,
		TailWindow: sj.TailWindow,
		DebtLimit:  sj.DebtLimit,
		Debt:       sj.Debt,
		Failures:   sj.Failures,
		CoolOff:    sj.CoolOff,
		LastScan:   -1,
		Future:     decodeSeq(sj.Future),
		Retention:  sj.Retention,
		Evicted:    sj.Evicted,
		Dropped:    sj.Dropped,
		GapFilled:  sj.GapFilled,
		Deferred:   sj.Deferred,
	}
	if sj.LastScan != nil && *sj.LastScan >= 0 {
		state.LastScan = *sj.LastScan
	}
	if len(sj.Future) == 0 {
		state.Future = nil
	}
	if err := numcheck.Sequence("stream snapshot", state.Seq); err != nil {
		return core.StreamState{}, 0, "", err
	}
	if sj.Result != nil {
		state.Result = *sj.Result
	}
	return state, sj.Refits, sj.Log, nil
}

// loadStreams restores every snapshot under streams/ and replays the
// segment each names. A corrupt or invalid snapshot is quarantined as
// <file>.corrupt and skipped — one bad stream must not block the boot, but
// leaving the bad file in place would re-fail (and previously silently
// re-skip) on every restart. Segments no snapshot names are swept.
func (r *Registry) loadStreams() error {
	entries, err := r.fs.ReadDir(filepath.Join(r.dir, streamsDir))
	if err != nil {
		return fmt.Errorf("registry: scanning streams: %w", err)
	}
	live := make(map[string]bool)
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		path := filepath.Join(r.dir, streamsDir, name)
		if err := ValidateID(id); err != nil {
			r.quarantine(path, "stream", id, err)
			continue
		}
		data, err := r.fs.ReadFile(path)
		if err != nil {
			return fmt.Errorf("registry: reading stream %q: %w", id, err)
		}
		s, refits, log, err := restoreStream(data, r.opts.StreamFit)
		if segID, _ := segmentOf(log); err == nil && log != "" && segID != id {
			err = fmt.Errorf("segment %q belongs to stream %q", log, segID)
		}
		if err != nil {
			r.quarantine(path, "stream", id, err)
			continue
		}
		r.configureStream(id, s)
		st := &stream{id: id, s: s, refits: refits, owed: compactBoot}
		if log != "" {
			live[log] = true
			if err := r.replaySegment(st, log); err != nil {
				return err
			}
		}
		r.streams[id] = st
	}
	// Segments no snapshot names are the new segment of a compaction whose
	// snapshot never committed, or an old one a crash stranded before its
	// removal. Quarantined *.corrupt files stay.
	r.sweepFiles(filepath.Join(r.dir, streamsDir), entries, func(name string) bool {
		_, ok := segmentOf(name)
		return ok && !live[name]
	})
	r.opts.Metrics.setStreams(len(r.streams))
	return nil
}

// encodeSeq maps missing ticks to JSON null.
func encodeSeq(seq []float64) []*float64 {
	out := make([]*float64, len(seq))
	for i, v := range seq {
		if tensor.IsMissing(v) {
			continue
		}
		v := v
		out[i] = &v
	}
	return out
}

// decodeSeq maps JSON null back to the missing sentinel.
func decodeSeq(seq []*float64) []float64 {
	out := make([]float64, len(seq))
	for i, p := range seq {
		if p == nil {
			out[i] = tensor.Missing
			continue
		}
		out[i] = *p
	}
	return out
}
