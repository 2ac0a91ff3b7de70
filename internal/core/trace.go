package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Fit-progress tracing: the fitting pipeline is a multi-layer optimisation
// (per-keyword LM base/growth alternation, greedy MDL-gated shock discovery,
// then d×l LocalFit) and runs as a black box without it. A ProgressFunc set
// on FitOptions receives a FitEvent at every stage boundary; FitTrace is the
// canonical consumer, aggregating events into a FitReport. The hook is
// strictly zero-cost when nil: no timestamps are taken and no events are
// built unless FitOptions.Progress is set.

// Stage names carried by FitEvent.Stage.
const (
	StageBase      = "base"       // LM base-parameter fit {N, β, δ, γ, i0}
	StageGrowth    = "growth"     // growth-effect search + MDL verdict
	StageShock     = "shock"      // one shock candidate + MDL verdict
	StageKeyword   = "keyword"    // one keyword's global fit, complete
	StageGlobal    = "global"     // the whole GlobalFit phase
	StageLocal     = "local"      // the whole LocalFit phase
	StageLocalCell = "local_cell" // one (keyword, location) local fit
	StagePanic     = "panic"      // a contained worker panic (see FitReport.Panics)
)

// FitEvent is one fit-progress observation emitted at a stage boundary.
type FitEvent struct {
	Stage     string        // one of the Stage* constants
	Keyword   int           // keyword index; -1 for phase-level events
	Location  int           // location index; -1 unless Stage == StageLocalCell
	Round     int           // outer alternation round (keyword events)
	LMIters   int           // LM iterations spent (base, growth, shock and keyword events)
	LMStalls  int           // LM runs that stalled at MaxLambda (same events as LMIters)
	Residual  float64       // objective after the stage (SSE or MDL cost)
	CostDelta float64       // candidate MDL cost − incumbent cost (shock/growth)
	Accepted  bool          // MDL verdict (shock/growth events)
	Shock     *Shock        // the candidate (shock events; nil otherwise)
	Duration  time.Duration // wall-clock spent in the stage
}

// ProgressFunc receives fit-progress events. It may be called concurrently
// from fitting workers and must be safe for parallel use.
type ProgressFunc func(FitEvent)

// chainProgress composes two hooks (either may be nil).
func chainProgress(a, b ProgressFunc) ProgressFunc {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(ev FitEvent) { a(ev); b(ev) }
}

// emit sends an event when tracing is enabled.
func (g *gfit) emit(ev FitEvent) {
	if g.opts.Progress != nil {
		g.opts.Progress(ev)
	}
}

// traceNow returns a timestamp only when tracing is enabled, so disabled
// runs never touch the clock.
func (g *gfit) traceNow() time.Time {
	if g.opts.Progress == nil {
		return time.Time{}
	}
	return time.Now()
}

// KeywordFitStats summarises one keyword's global fit inside a FitReport.
type KeywordFitStats struct {
	Keyword      int `json:"keyword"`
	Rounds       int `json:"rounds"`
	LMIterations int `json:"lm_iterations"`
	// LMStalls counts LM sub-problems that ended stalled (damping hit
	// MaxLambda without an improving step — lm.Result.Stalled) rather than
	// converged or out of budget. A healthy analytic-Jacobian fit stalls
	// only on starts parked in hopeless basins; a climbing stall rate is
	// the early symptom of a wrong Jacobian, which LM experiences as an
	// objective that refuses to descend along the predicted direction.
	LMStalls       int           `json:"lm_stalls"`
	Cost           float64       `json:"cost"` // final MDL cost (normalised data)
	ShocksTried    int           `json:"shocks_tried"`
	ShocksAccepted int           `json:"shocks_accepted"`
	Duration       time.Duration `json:"duration_ns"`
}

// FitReport aggregates a fit run's trace events: where the wall-clock went,
// how hard LM worked, and what the MDL gates decided. Stage durations for
// per-keyword and per-cell stages sum across parallel workers, so they can
// exceed the phase wall-clock; the Global/Local durations are true
// wall-clock for each phase. LMIterations and LMStalls are the keyword
// events' totals; StageLMIterations and StageLMStalls split them by the
// base, growth and shock stages. LM work outside those stages, such as the
// joint strength refinement after shock discovery, belongs to none, so the
// stage sums can fall short of the totals.
type FitReport struct {
	Keywords          int                      `json:"keywords"`
	LMIterations      int                      `json:"lm_iterations"`
	LMStalls          int                      `json:"lm_stalls"`
	StageLMIterations map[string]int           `json:"stage_lm_iterations"`
	StageLMStalls     map[string]int           `json:"stage_lm_stalls"`
	ShocksTried       int                      `json:"shocks_tried"`
	ShocksAccepted    int                      `json:"shocks_accepted"`
	GrowthTried       int                      `json:"growth_tried"`
	GrowthAccepted    int                      `json:"growth_accepted"`
	LocalCells        int                      `json:"local_cells"`
	Panics            int                      `json:"panics"` // contained worker panics
	GlobalDuration    time.Duration            `json:"global_duration_ns"`
	LocalDuration     time.Duration            `json:"local_duration_ns"`
	StageDurations    map[string]time.Duration `json:"stage_durations_ns"`
	PerKeyword        []KeywordFitStats        `json:"per_keyword"`
}

// TotalDuration is the wall-clock of the traced phases.
func (r *FitReport) TotalDuration() time.Duration {
	return r.GlobalDuration + r.LocalDuration
}

// String renders the report as the human-readable block printed by the
// -stats CLI flags.
func (r *FitReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fit report: %d keywords, %d LM iterations (%d stalled runs), shocks %d tried / %d accepted",
		r.Keywords, r.LMIterations, r.LMStalls, r.ShocksTried, r.ShocksAccepted)
	if r.GrowthTried > 0 {
		fmt.Fprintf(&b, ", growth %d tried / %d accepted", r.GrowthTried, r.GrowthAccepted)
	}
	if r.Panics > 0 {
		fmt.Fprintf(&b, ", %d PANICS CONTAINED", r.Panics)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  phases: global %v", r.GlobalDuration.Round(time.Millisecond))
	if r.LocalCells > 0 {
		fmt.Fprintf(&b, ", local %v (%d cells)",
			r.LocalDuration.Round(time.Millisecond), r.LocalCells)
	}
	b.WriteByte('\n')
	if len(r.StageDurations) > 0 {
		stages := make([]string, 0, len(r.StageDurations))
		for s := range r.StageDurations {
			stages = append(stages, s)
		}
		sort.Strings(stages)
		b.WriteString("  stages (worker time):")
		for _, s := range stages {
			fmt.Fprintf(&b, " %s=%v", s, r.StageDurations[s].Round(time.Millisecond))
		}
		b.WriteByte('\n')
	}
	if len(r.StageLMIterations) > 0 {
		b.WriteString("  stage LM iterations (stalled runs):")
		for _, s := range []string{StageBase, StageGrowth, StageShock} {
			if it, ok := r.StageLMIterations[s]; ok {
				fmt.Fprintf(&b, " %s=%d (%d)", s, it, r.StageLMStalls[s])
			}
		}
		b.WriteByte('\n')
	}
	for _, k := range r.PerKeyword {
		fmt.Fprintf(&b, "  keyword %-3d rounds=%d lm_iters=%-5d cost=%-10.1f shocks=%d/%d  %v\n",
			k.Keyword, k.Rounds, k.LMIterations, k.Cost,
			k.ShocksAccepted, k.ShocksTried, k.Duration.Round(time.Millisecond))
	}
	return b.String()
}

// FitTrace aggregates FitEvents into a FitReport. Safe for concurrent use;
// one FitTrace should observe one fit run (or one run series whose events
// you want summed, e.g. a whole experiment sweep).
type FitTrace struct {
	mu     sync.Mutex
	report FitReport
	perKw  map[int]*KeywordFitStats
}

// NewFitTrace returns an empty collector.
func NewFitTrace() *FitTrace {
	return &FitTrace{
		report: FitReport{
			StageDurations:    make(map[string]time.Duration),
			StageLMIterations: make(map[string]int),
			StageLMStalls:     make(map[string]int),
		},
		perKw: make(map[int]*KeywordFitStats),
	}
}

// Hook returns the ProgressFunc to set on FitOptions.Progress.
func (t *FitTrace) Hook() ProgressFunc { return t.observe }

func (t *FitTrace) kw(i int) *KeywordFitStats {
	s, ok := t.perKw[i]
	if !ok {
		s = &KeywordFitStats{Keyword: i}
		t.perKw[i] = s
	}
	return s
}

func (t *FitTrace) observe(ev FitEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.report.StageDurations[ev.Stage] += ev.Duration
	switch ev.Stage {
	case StageBase, StageGrowth, StageShock:
		t.report.StageLMIterations[ev.Stage] += ev.LMIters
		t.report.StageLMStalls[ev.Stage] += ev.LMStalls
	}
	switch ev.Stage {
	case StageShock:
		t.report.ShocksTried++
		k := t.kw(ev.Keyword)
		k.ShocksTried++
		if ev.Accepted {
			t.report.ShocksAccepted++
			k.ShocksAccepted++
		}
	case StageGrowth:
		t.report.GrowthTried++
		if ev.Accepted {
			t.report.GrowthAccepted++
		}
	case StageKeyword:
		t.report.Keywords++
		t.report.LMIterations += ev.LMIters
		t.report.LMStalls += ev.LMStalls
		k := t.kw(ev.Keyword)
		k.Rounds = ev.Round
		k.LMIterations += ev.LMIters
		k.LMStalls += ev.LMStalls
		k.Cost = ev.Residual
		k.Duration += ev.Duration
	case StageGlobal:
		t.report.GlobalDuration += ev.Duration
	case StageLocal:
		t.report.LocalDuration += ev.Duration
	case StageLocalCell:
		t.report.LocalCells++
	case StagePanic:
		t.report.Panics++
	}
}

// Report returns a copy of the aggregated report.
func (t *FitTrace) Report() *FitReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.report
	out.StageDurations = make(map[string]time.Duration, len(t.report.StageDurations))
	for k, v := range t.report.StageDurations {
		out.StageDurations[k] = v
	}
	out.StageLMIterations = make(map[string]int, len(t.report.StageLMIterations))
	for k, v := range t.report.StageLMIterations {
		out.StageLMIterations[k] = v
	}
	out.StageLMStalls = make(map[string]int, len(t.report.StageLMStalls))
	for k, v := range t.report.StageLMStalls {
		out.StageLMStalls[k] = v
	}
	kws := make([]int, 0, len(t.perKw))
	for i := range t.perKw {
		kws = append(kws, i)
	}
	sort.Ints(kws)
	out.PerKeyword = make([]KeywordFitStats, 0, len(kws))
	for _, i := range kws {
		out.PerKeyword = append(out.PerKeyword, *t.perKw[i])
	}
	return &out
}
