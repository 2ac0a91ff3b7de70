// Package jobs is the asynchronous execution engine behind the service's
// fit endpoints: fits take minutes at scale, so requests enqueue work and
// poll instead of holding a connection open for the whole fit.
//
// The engine is deliberately generic — it runs any Func — with a bounded
// queue (backpressure surfaces as ErrQueueFull, not unbounded memory),
// deadline-aware admission (a submission whose estimated queue wait cannot
// meet its deadline bounces with OverBudgetError instead of queueing dead
// work), a fixed worker pool, a per-job timeout, cooperative cancellation,
// and one retry for failures marked Transient. A job moves through
//
//	queued → running → done | failed | cancelled
//
// and its terminal snapshot (including the Func's result) stays queryable
// until evicted by the history bound. Cancelling a queued job is immediate.
// Cancelling a running job cancels its context and expects the Func to
// return cooperatively — the core fitters observe their context inside
// every optimisation loop, so a cancelled fit stops computing within about
// one LM iteration and finishes through the normal path as cancelled.
// Abandonment is only a backstop for truly uncooperative Funcs: if the Func
// still has not returned AbandonGrace after its context ended, the worker
// abandons the invocation (the goroutine keeps running until it notices,
// its outcome discarded) and moves on.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"dspot/internal/admit"
	"dspot/internal/obs/trace"
)

// State is a job lifecycle state.
type State string

// The five job states. The last three are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Func is the unit of work: it must honour ctx and return either a result
// (stored on the job, JSON-encodable for the HTTP layer) or an error.
type Func func(ctx context.Context) (any, error)

// Engine errors recognised by callers.
var (
	ErrQueueFull = errors.New("jobs: queue full")
	ErrClosed    = errors.New("jobs: engine closed")
	ErrNotFound  = errors.New("jobs: not found")
	ErrTerminal  = errors.New("jobs: job already finished")
)

// OverBudgetError rejects a submission whose estimated queue wait exceeds
// the admission budget: the job would be dead on arrival — queued past its
// caller's deadline, cancelled before a worker picks it up — so the engine
// refuses it up front instead of wasting a queue slot on it. Callers match
// it with errors.As and surface Estimate as a Retry-After hint.
type OverBudgetError struct {
	// Estimate is the predicted queue wait at submission time.
	Estimate time.Duration
	// Budget is the admission budget the estimate exceeded (the configured
	// AdmitBudget, tightened by the submitting context's deadline).
	Budget time.Duration
}

func (e *OverBudgetError) Error() string {
	return fmt.Sprintf("jobs: estimated queue wait %v exceeds admission budget %v",
		e.Estimate.Round(time.Millisecond), e.Budget.Round(time.Millisecond))
}

// transientError marks an error as retryable.
type transientError struct{ err error }

func (t *transientError) Error() string { return t.err.Error() }
func (t *transientError) Unwrap() error { return t.err }

// Transient wraps err so the engine retries the job once (nil stays nil).
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err}
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// Defaults applied by New when the corresponding Options field is zero.
const (
	DefaultWorkers         = 2
	DefaultQueueDepth      = 16
	DefaultTimeout         = 15 * time.Minute
	DefaultMaxHistory      = 256
	DefaultAbandonGrace    = 2 * time.Second
	DefaultSaturationGrace = 5 * time.Second
)

// Options configures New.
type Options struct {
	// Workers is the fixed worker-pool size (default DefaultWorkers).
	Workers int
	// QueueDepth bounds queued-but-not-running jobs (default
	// DefaultQueueDepth); Submit fails fast with ErrQueueFull beyond it.
	QueueDepth int
	// Timeout bounds each running job (default DefaultTimeout; it does not
	// count queue wait). Negative disables the timeout.
	Timeout time.Duration
	// MaxHistory bounds retained terminal jobs (default DefaultMaxHistory);
	// the oldest finished snapshots are evicted first.
	MaxHistory int
	// AbandonGrace is how long a worker waits, after a job's context ends,
	// for the Func to return cooperatively before abandoning the invocation
	// (default DefaultAbandonGrace; negative abandons immediately). A
	// cooperative Func that returns inside the grace window finishes
	// through the normal path — cancelled or timed out, never abandoned —
	// and frees no lingering goroutine.
	AbandonGrace time.Duration
	// SaturationGrace is how long the queue must stay continuously full
	// before Saturated reports it (default DefaultSaturationGrace; negative
	// reports instantaneously). Submissions still bounce with ErrQueueFull
	// the moment the queue is full — the grace only keeps a momentary burst
	// from failing the whole instance's readiness probe and flapping it out
	// of load-balancer rotation.
	SaturationGrace time.Duration
	// AdmitBudget, when positive, enables deadline-aware admission: a
	// submission whose EstimatedWait exceeds the budget (or the submitting
	// context's remaining deadline, whichever is tighter) is rejected with
	// an OverBudgetError before it consumes a queue slot. Zero disables the
	// check; a context deadline alone still enforces admission when set.
	AdmitBudget time.Duration
	// Logger, when non-nil, reports job transitions and abandoned Funcs.
	Logger *slog.Logger
	// Metrics, when non-nil, exports queue depth, busy workers, outcomes
	// and latencies.
	Metrics *Metrics
	// Tracer, when non-nil, records two spans per job — queue wait
	// (enqueue → worker pickup) and run (pickup → terminal) — as children
	// of the span active in the SubmitCtx context, so an async fit's trace
	// continues past the HTTP 202 that accepted it.
	Tracer *trace.Tracer
}

// Snapshot is the queryable state of a job at one instant.
type Snapshot struct {
	ID           string `json:"id"`
	Kind         string `json:"kind"`
	State        State  `json:"state"`
	Error        string `json:"error,omitempty"`
	Attempts     int    `json:"attempts"`
	CreatedUnix  int64  `json:"created_unix"`
	StartedUnix  int64  `json:"started_unix,omitempty"`
	FinishedUnix int64  `json:"finished_unix,omitempty"`
	Result       any    `json:"result,omitempty"`
}

// job is the engine-internal record.
type job struct {
	id   string
	kind string
	fn   Func

	cancel context.CancelFunc // cancels jctx: explicit cancel or shutdown
	jctx   context.Context

	// Trace correlation, fixed at submit time: the submitter's span
	// context (the job spans' parent), the queue-wait span opened at
	// enqueue, and the trace id every lifecycle log line carries.
	parent   trace.SpanContext
	waitSpan *trace.Span
	traceID  string

	// Mutable fields below are guarded by the engine mutex.
	state     State
	err       string
	attempts  int
	created   time.Time
	started   time.Time
	finished  time.Time
	result    any
	cancelReq bool
}

// Engine runs jobs on a fixed worker pool over a bounded queue.
type Engine struct {
	opts  Options
	root  context.Context
	stop  context.CancelFunc
	queue chan *job
	wg    sync.WaitGroup

	// runtime tracks the EWMA of completed-job run latencies; EstimatedWait
	// scales it by the queue depth for admission decisions.
	runtime *admit.EWMA

	mu       sync.Mutex
	jobs     map[string]*job
	terminal []string  // terminal job ids, oldest first, for history eviction
	satSince time.Time // when the queue last became full; zero = not full
	closed   bool
}

// New starts an engine with opts' worker pool. Call Close to drain it.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = DefaultWorkers
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.Timeout == 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.MaxHistory <= 0 {
		opts.MaxHistory = DefaultMaxHistory
	}
	if opts.AbandonGrace == 0 {
		opts.AbandonGrace = DefaultAbandonGrace
	}
	if opts.SaturationGrace == 0 {
		opts.SaturationGrace = DefaultSaturationGrace
	}
	root, stop := context.WithCancel(context.Background())
	e := &Engine{
		opts:    opts,
		root:    root,
		stop:    stop,
		queue:   make(chan *job, opts.QueueDepth),
		jobs:    make(map[string]*job),
		runtime: admit.NewEWMA(0),
	}
	for i := 0; i < opts.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

func (e *Engine) logger() *slog.Logger {
	if e.opts.Logger != nil {
		return e.opts.Logger
	}
	return nopLogger
}

var nopLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{
	Level: slog.Level(127),
}))

// newID returns a random 16-hex-character job id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: randomness unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Submit enqueues fn under a fresh id. kind labels the job in snapshots and
// metrics. It fails fast with ErrQueueFull when the queue is at depth.
func (e *Engine) Submit(kind string, fn Func) (string, error) {
	return e.SubmitCtx(context.Background(), kind, fn)
}

// SubmitCtx is Submit carrying trace identity and an admission deadline:
// the span active in ctx (or a remote span context extracted from an
// inbound traceparent) becomes the parent of the job's queue-wait and run
// spans, and its trace id rides on every lifecycle log line. ctx's deadline
// (when set, or Options.AdmitBudget) also gates admission — a submission
// whose estimated queue wait already exceeds it is rejected with an
// OverBudgetError instead of queueing a job that would be cancelled before
// a worker reaches it. The job's lifetime is still bound to the engine,
// never to the (typically short-lived) submitting request.
func (e *Engine) SubmitCtx(ctx context.Context, kind string, fn Func) (string, error) {
	jctx, cancel := context.WithCancel(e.root)
	j := &job{
		id: newID(), kind: kind, fn: fn,
		jctx: jctx, cancel: cancel,
		state: StateQueued, created: time.Now(),
		parent: trace.SpanContextOf(ctx),
	}
	j.waitSpan = e.opts.Tracer.StartChild(j.parent, "job.wait",
		trace.String("job_id", j.id), trace.String("kind", kind))
	if sc := j.waitSpan.Context(); sc.Valid() {
		j.traceID = sc.TraceID.String()
	}
	if budget, gated := e.admitBudget(ctx); gated {
		if est := e.EstimatedWait(); est > budget {
			cancel()
			e.opts.Metrics.rejected()
			j.waitSpan.SetAttr("outcome", "rejected_over_budget")
			j.waitSpan.End()
			return "", &OverBudgetError{Estimate: est, Budget: budget}
		}
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		cancel()
		j.waitSpan.SetAttr("outcome", "rejected_closed")
		j.waitSpan.End()
		return "", ErrClosed
	}
	select {
	case e.queue <- j:
	default:
		e.mu.Unlock()
		cancel()
		e.opts.Metrics.rejected()
		j.waitSpan.SetAttr("outcome", "rejected_queue_full")
		j.waitSpan.End()
		return "", fmt.Errorf("%w (depth %d)", ErrQueueFull, cap(e.queue))
	}
	e.jobs[j.id] = j
	if len(e.queue) == cap(e.queue) {
		if e.satSince.IsZero() {
			e.satSince = time.Now()
		}
	} else {
		e.satSince = time.Time{}
	}
	e.mu.Unlock()
	e.opts.Metrics.queueDepth(len(e.queue))
	e.logger().Debug("job queued", j.logArgs("id", j.id, "kind", kind)...)
	return j.id, nil
}

// admitBudget resolves the effective admission budget for one submission:
// the configured AdmitBudget, tightened by the submitting context's
// remaining deadline when it has one. gated=false means admission is
// unbounded (no budget, no deadline) and the estimate is not consulted.
func (e *Engine) admitBudget(ctx context.Context) (budget time.Duration, gated bool) {
	budget, gated = e.opts.AdmitBudget, e.opts.AdmitBudget > 0
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); !gated || rem < budget {
			budget, gated = rem, true
		}
	}
	return budget, gated
}

// EstimatedWait predicts how long a job submitted now would sit in the
// queue: queued jobs ahead of it spread over the worker pool, scaled by the
// EWMA of observed run latencies. It deliberately ignores the remaining
// time of in-flight jobs (a mild underestimate) and reads zero until the
// first job completes — admission starts optimistic and only sheds once
// real latencies accumulate.
func (e *Engine) EstimatedWait() time.Duration {
	per := e.runtime.Seconds()
	if per <= 0 {
		return 0
	}
	w := e.opts.Workers
	if w < 1 {
		w = 1
	}
	wait := float64(len(e.queue)) / float64(w) * per
	return time.Duration(wait * float64(time.Second))
}

// QueueLen returns the number of queued-but-not-running jobs.
func (e *Engine) QueueLen() int { return len(e.queue) }

// QueueCap returns the configured queue depth.
func (e *Engine) QueueCap() int { return cap(e.queue) }

// WorkerCount returns the fixed worker-pool size.
func (e *Engine) WorkerCount() int { return e.opts.Workers }

// Saturated reports whether the job queue has been continuously full for at
// least Options.SaturationGrace. Readiness probes use it to steer load away
// from an instance that is genuinely backed up — the grace keeps one bursty
// batch of submissions (whose overflow already bounces with ErrQueueFull
// and a Retry-After) from flipping read-only traffic out of rotation.
func (e *Engine) Saturated() bool {
	full := len(e.queue) == cap(e.queue)
	e.mu.Lock()
	defer e.mu.Unlock()
	if !full {
		e.satSince = time.Time{}
		return false
	}
	if e.satSince.IsZero() {
		e.satSince = time.Now()
	}
	return e.opts.SaturationGrace < 0 ||
		time.Since(e.satSince) >= e.opts.SaturationGrace
}

// Get returns the job's snapshot.
func (e *Engine) Get(id string) (Snapshot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return Snapshot{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	return j.snapshotLocked(), nil
}

// List returns every retained job snapshot, newest first.
func (e *Engine) List() []Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Snapshot, 0, len(e.jobs))
	for _, j := range e.jobs {
		out = append(out, j.snapshotLocked())
	}
	sortSnapshots(out)
	return out
}

// Cancel requests cancellation. A queued job is cancelled immediately; a
// running job has its context cancelled and finishes as cancelled once the
// worker observes it. Cancelling a terminal job returns ErrTerminal.
func (e *Engine) Cancel(id string) (Snapshot, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return Snapshot{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	if j.state.Terminal() {
		snap := j.snapshotLocked()
		e.mu.Unlock()
		return snap, ErrTerminal
	}
	j.cancelReq = true
	if j.state == StateQueued {
		e.finishLocked(j, StateCancelled, "cancelled while queued", nil)
	}
	snap := j.snapshotLocked()
	e.mu.Unlock()
	j.cancel()
	e.logger().Info("job cancel requested",
		j.logArgs("id", id, "state", snap.State)...)
	return snap, nil
}

// Close stops accepting jobs, cancels everything in flight, and waits for
// the workers to exit.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.stop() // cancels every job context derived from root
	e.wg.Wait()
	// Mark whatever never got picked up.
	e.mu.Lock()
	for {
		select {
		case j := <-e.queue:
			if !j.state.Terminal() {
				e.finishLocked(j, StateCancelled, "engine closed", nil)
			}
		default:
			e.mu.Unlock()
			return
		}
	}
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.root.Done():
			return
		case j := <-e.queue:
			e.mu.Lock()
			if len(e.queue) < cap(e.queue) {
				e.satSince = time.Time{} // dequeue broke the full streak
			}
			e.mu.Unlock()
			e.run(j)
			e.opts.Metrics.queueDepth(len(e.queue))
		}
	}
}

// run executes one job: timeout context, invocation, retry-once on
// transient failure, terminal bookkeeping.
func (e *Engine) run(j *job) {
	e.mu.Lock()
	if j.state.Terminal() { // cancelled while queued
		e.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	e.mu.Unlock()
	// The run span opens before the wait span ends, so the trace always
	// has a span open and the flight recorder keeps it however many
	// traces land while the job runs.
	runSpan := e.opts.Tracer.StartChild(j.parent, "job.run",
		trace.String("job_id", j.id), trace.String("kind", j.kind))
	j.waitSpan.End()
	e.opts.Metrics.queueWaited(j.started.Sub(j.created))
	e.opts.Metrics.workerBusy(+1)
	defer e.opts.Metrics.workerBusy(-1)
	e.logger().Info("job running", j.logArgs("id", j.id, "kind", j.kind)...)

	rctx := j.jctx
	if e.opts.Timeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(j.jctx, e.opts.Timeout)
		defer cancel()
	}
	if runSpan != nil {
		// The Func sees the run span as its active span, so fit-stage
		// spans recorded from FitEvents become its children.
		rctx = trace.ContextWithSpan(rctx, runSpan)
	}

	const maxAttempts = 2 // one retry on transient failure
	for attempt := 1; ; attempt++ {
		e.mu.Lock()
		j.attempts = attempt
		e.mu.Unlock()
		result, err, abandoned := e.invoke(j, rctx)
		e.mu.Lock()
		switch {
		case abandoned || (err != nil && rctx.Err() != nil):
			// The context ended (cancel, shutdown or timeout) — classify.
			reason := "timeout"
			state := StateFailed
			if j.cancelReq || j.jctx.Err() != nil {
				reason, state = "cancelled", StateCancelled
			}
			if abandoned {
				runSpan.AddEvent("abandoned")
			}
			e.finishLocked(j, state, reason, nil)
		case err == nil:
			e.finishLocked(j, StateDone, "", result)
		case IsTransient(err) && attempt < maxAttempts:
			e.mu.Unlock()
			e.opts.Metrics.retry()
			runSpan.AddEvent("retry", trace.String("err", err.Error()))
			e.logger().Warn("job retrying after transient failure",
				j.logArgs("id", j.id, "kind", j.kind, "err", err)...)
			continue
		default:
			e.finishLocked(j, StateFailed, err.Error(), nil)
		}
		state, errMsg, attempts := j.state, j.err, j.attempts
		e.mu.Unlock()
		runSpan.SetAttr("state", string(state))
		runSpan.SetAttr("attempts", attempts)
		if errMsg != "" {
			runSpan.SetAttr("err", errMsg)
		}
		runSpan.End()
		return
	}
}

// invoke runs fn under ctx. When the context ends first, the worker waits
// up to AbandonGrace for fn to return cooperatively (the normal case: the
// fitters observe ctx and come back within one LM iteration); only a Func
// that outlives the grace window is abandoned (abandoned=true) — its
// goroutine keeps running until it notices, with the outcome discarded.
func (e *Engine) invoke(j *job, ctx context.Context) (result any, err error, abandoned bool) {
	type outcome struct {
		result any
		err    error
	}
	done := make(chan outcome, 1)
	launched := time.Now()
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{nil, fmt.Errorf("jobs: panic: %v", r)}
			}
		}()
		res, ferr := j.fn(ctx)
		done <- outcome{res, ferr}
	}()
	select {
	case out := <-done:
		return out.result, out.err, false
	case <-ctx.Done():
	}
	if grace := e.opts.AbandonGrace; grace > 0 {
		t := time.NewTimer(grace)
		defer t.Stop()
		select {
		case out := <-done:
			if out.err == nil {
				// The Func raced a successful return against the cancel;
				// the context verdict wins so a cancelled job never
				// resurfaces as done.
				return out.result, ctx.Err(), false
			}
			return out.result, out.err, false
		case <-t.C:
		}
	}
	e.opts.Metrics.abandoned()
	e.logger().Warn("abandoning uncooperative job invocation",
		j.logArgs("id", j.id, "kind", j.kind, "grace", e.opts.AbandonGrace)...)
	go func() {
		<-done // drain so the Func goroutine can exit
		e.logger().Warn("abandoned job invocation finished",
			j.logArgs("id", j.id, "kind", j.kind, "after", time.Since(launched))...)
	}()
	return nil, ctx.Err(), true
}

// finishLocked moves j to a terminal state and applies the history bound.
func (e *Engine) finishLocked(j *job, state State, errMsg string, result any) {
	j.state = state
	j.err = errMsg
	j.result = result
	j.finished = time.Now()
	j.cancel()
	// Close the queue-wait span for jobs that never reached a worker
	// (cancelled while queued, engine closed); End is idempotent so the
	// normal pickup path is unaffected.
	j.waitSpan.End()
	e.terminal = append(e.terminal, j.id)
	for len(e.terminal) > e.opts.MaxHistory {
		evict := e.terminal[0]
		e.terminal = e.terminal[1:]
		delete(e.jobs, evict)
	}
	var latency time.Duration
	if !j.started.IsZero() {
		latency = j.finished.Sub(j.started)
		e.runtime.Observe(latency)
	}
	e.opts.Metrics.finished(j.kind, state, latency)
	e.logger().Info("job finished", j.logArgs("id", j.id, "kind", j.kind,
		"state", state, "err", errMsg, "latency", latency)...)
}

// logArgs appends the job's trace id (when it has one) to a lifecycle log
// line's key/value pairs, so every log about the job correlates with its
// trace in the flight recorder.
func (j *job) logArgs(kv ...any) []any {
	if j.traceID == "" {
		return kv
	}
	return append(kv, "trace_id", j.traceID)
}

func (j *job) snapshotLocked() Snapshot {
	s := Snapshot{
		ID: j.id, Kind: j.kind, State: j.state, Error: j.err,
		Attempts: j.attempts, CreatedUnix: j.created.Unix(),
		Result: j.result,
	}
	if !j.started.IsZero() {
		s.StartedUnix = j.started.Unix()
	}
	if !j.finished.IsZero() {
		s.FinishedUnix = j.finished.Unix()
	}
	return s
}

// sortSnapshots orders newest-created first, id as tiebreaker.
func sortSnapshots(s []Snapshot) {
	for i := 1; i < len(s); i++ { // insertion sort: lists are small
		for k := i; k > 0; k-- {
			a, b := &s[k-1], &s[k]
			if a.CreatedUnix > b.CreatedUnix ||
				(a.CreatedUnix == b.CreatedUnix && a.ID <= b.ID) {
				break
			}
			*a, *b = *b, *a
		}
	}
}
