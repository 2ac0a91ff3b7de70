package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// scheduleFixture is a small base-fit LM problem over a synthetic
// sequence: 60 ticks of SIV dynamics with one bump, fitted under a budget
// of workers goroutines. calls counts how often the problem is assembled,
// i.e. how many residual or Jacobian evaluations LM made.
func scheduleFixture(workers int) (g *gfit, pr lmProblem, calls *atomic.Int64) {
	const n = 60
	truth := KeywordParams{N: 1, Beta: 0.6, Delta: 0.4, Gamma: 0.3, I0: 0.02, TEta: NoGrowth}
	eps := epsilonOf([]Shock{{Period: NonCyclic, Start: 25, Width: 3, Strength: []float64{4}}}, n)
	g = &gfit{seq: Simulate(&truth, n, eps, -1), n: n, params: KeywordParams{TEta: NoGrowth},
		slots: newWorkerSlots(workers - 1)}
	calls = new(atomic.Int64)
	pr = lmProblem{specs: BaseSensSpecs(), lo: baseLo, hi: baseHi,
		assemble: func(sc *lmScratch, v []float64) (*KeywordParams, []float64) {
			calls.Add(1)
			sc.cand = g.withBase(v)
			return &sc.cand, eps
		}}
	return g, pr, calls
}

// scheduleStarts are five base-fit starts; the third has the wrong length,
// so LM rejects it without a run.
var scheduleStarts = [][]float64{
	{1, 0.6, 0.4, 0.3, 0.02},
	{0.5, 1.0, 0.45, 0.5, 0.01},
	{1, 0.6, 0.4, 0.3},
	{2, 0.2, 0.45, 0.5, 0.01},
	{0.8, 2.5, 0.45, 0.5, 0.05},
}

type scored struct {
	v   []float64
	sse float64
}

// recordingScore records every endpoint it is asked to score and returns
// the scripted scores in call order.
func recordingScore(script ...float64) (*[]scored, func(v []float64, sse float64) float64) {
	var rec []scored
	return &rec, func(v []float64, sse float64) float64 {
		rec = append(rec, scored{v: v, sse: sse})
		return script[len(rec)-1]
	}
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The one multi-start schedule every global-fit LM sub-problem goes
// through: the score is called once per successful run, screening runs the
// starts in order, the polish runs resume the keep best screened endpoints
// by (score, screening order), best first, the first lowest score wins, a
// polish budget of 0 polishes nothing, and a cancelled fit runs no LM. The
// worker budget changes none of it: with spare slots the runs of a phase
// run concurrently, and the fit's goroutine still scores the same
// endpoints in the same order.
func TestMultiStartScheduleContract(t *testing.T) {
	sch := schedule{screen: 4, polish: 6, keep: 2}

	// The oracle: every run the schedule should make, made one at a time.
	g, pr, _ := scheduleFixture(1)
	run := g.lmRunner(pr)
	var screens [][]float64
	for _, s0 := range scheduleStarts {
		if res, err := run(&g.lmScratch, s0, sch.screen); err == nil {
			screens = append(screens, res.Params)
		}
	}
	if len(screens) != 4 {
		t.Fatalf("%d of 5 starts ran, want 4 (the short one fails)", len(screens))
	}
	polish := func(v []float64) []float64 {
		res, err := run(&g.lmScratch, v, sch.polish)
		if err != nil {
			t.Fatal(err)
		}
		return res.Params
	}

	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testMultiStartSchedule(t, workers, sch, screens, polish)
		})
	}
}

func testMultiStartSchedule(t *testing.T, workers int, sch schedule, screens [][]float64, polish func([]float64) []float64) {
	// Screens score 3, 1, 1, 2: the second and third successful starts tie
	// for best, and the earlier one polishes first.
	for _, tc := range []struct {
		name     string
		script   []float64
		wantBest int // index into the recorded endpoints
	}{
		{"polish ties keep the screened best", []float64{3, 1, 1, 2, 1, 1}, 1},
		{"a lower polish wins", []float64{3, 1, 1, 2, 2, 0.5}, 5},
	} {
		g, pr, _ := scheduleFixture(workers)
		rec, score := recordingScore(tc.script...)
		best, bestScore := g.multiStart(pr, scheduleStarts, sch, score)
		want := append(append([][]float64(nil), screens...), polish(screens[1]), polish(screens[2]))
		if len(*rec) != len(want) {
			t.Fatalf("%s: score called %d times, want %d (4 screens, 2 polishes)", tc.name, len(*rec), len(want))
		}
		for i, w := range want {
			if !sameVec((*rec)[i].v, w) {
				t.Fatalf("%s: scored endpoint %d is %v, want %v", tc.name, i, (*rec)[i].v, w)
			}
		}
		if !sameVec(best, (*rec)[tc.wantBest].v) || bestScore != tc.script[tc.wantBest] {
			t.Fatalf("%s: returned %v scoring %g, want endpoint %d scoring %g",
				tc.name, best, bestScore, tc.wantBest, tc.script[tc.wantBest])
		}
	}

	// Screen only.
	g, pr, _ := scheduleFixture(workers)
	rec, score := recordingScore(3, 1, 1, 2)
	best, _ := g.multiStart(pr, scheduleStarts, schedule{screen: 4, keep: 2}, score)
	if len(*rec) != 4 || !sameVec(best, screens[1]) {
		t.Fatalf("polish 0: %d scored endpoints and best %v, want the 4 screens and %v", len(*rec), best, screens[1])
	}

	// Cancelled before the call.
	g, pr, calls := scheduleFixture(workers)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g.ctx = ctx
	rec, score = recordingScore()
	best, bestScore := g.multiStart(pr, scheduleStarts, sch, score)
	if best != nil || !math.IsInf(bestScore, 1) || len(*rec) != 0 || calls.Load() != 0 || g.lmIters != 0 {
		t.Fatalf("cancelled: best %v scoring %g after %d scores, %d evaluations and %d LM iterations; want no LM run",
			best, bestScore, len(*rec), calls.Load(), g.lmIters)
	}
}

// A phase's last run runs on the fit's goroutine, in the fit's own scratch,
// however many worker slots are free; so does a problem's single start,
// which is what lets refineStrengths' assemble write the fit's shocks.
func TestMultiStartLastRunInline(t *testing.T) {
	g, pr, calls := scheduleFixture(4)
	assemble := pr.assemble
	var elsewhere atomic.Int64
	pr.assemble = func(sc *lmScratch, v []float64) (*KeywordParams, []float64) {
		if sc != &g.lmScratch {
			elsewhere.Add(1)
		}
		return assemble(sc, v)
	}
	if best, _ := g.multiStart(pr, scheduleStarts[:1], schedule{screen: 4, polish: 6, keep: 1}, bySSE); best == nil {
		t.Fatal("the single start did not run")
	}
	if n := elsewhere.Load(); n != 0 {
		t.Fatalf("%d of %d evaluations of a single-start problem ran outside the fit's scratch", n, calls.Load())
	}
}

// A panic inside an LM run on a goroutine of its own cannot unwind the
// fit's goroutine, where the fitters' recover gate is deferred. It comes
// back as the run's error, stops the fit, and the fit returns it as the
// contained "fit panicked" error with a StagePanic event, just as the same
// panic on the fit's goroutine (Workers 1) gives.
func TestMultiStartRunContainsPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g, pr, calls := scheduleFixture(workers)
		var panics atomic.Int64
		g.opts.Progress = func(ev FitEvent) {
			if ev.Stage == StagePanic {
				panics.Add(1)
			}
		}
		assemble := pr.assemble
		boom := pr
		boom.assemble = func(sc *lmScratch, v []float64) (*KeywordParams, []float64) {
			if sameVec(v, scheduleStarts[0]) {
				panic("run boom")
			}
			return assemble(sc, v)
		}
		fit := func() (err error) {
			defer recoverFitPanic(g.opts, g.keyword, -1, &err)
			g.multiStart(boom, scheduleStarts, schedule{screen: 4, polish: 6, keep: 2}, bySSE)
			return g.stopErr("fit")
		}
		err := fit()
		var p *fitPanic
		if !errors.As(err, &p) || err.Error() != "core: fit panicked: run boom" {
			t.Fatalf("Workers %d: err = %v, want the contained panic", workers, err)
		}
		if got := panics.Load(); got != 1 {
			t.Fatalf("Workers %d: %d StagePanic events, want 1", workers, got)
		}
		if got := len(g.slots); got != workers-1 {
			t.Fatalf("Workers %d: %d of %d worker slots came back", workers, got, workers-1)
		}
		if workers == 1 {
			continue // the panic unwound the fit's goroutine itself
		}
		// The handed-over panic stopped the fit: no further run starts.
		calls.Store(0)
		if best, _ := g.multiStart(pr, scheduleStarts, schedule{screen: 4}, bySSE); best != nil || calls.Load() != 0 {
			t.Fatalf("Workers %d: a run started after the panic (%d evaluations)", workers, calls.Load())
		}
	}
}

// A one-keyword fit at Workers 2 runs at most one goroutine beside its own,
// and does run one. The count is sampled from inside every LM iteration,
// on whichever goroutine the run is on, through the context check each
// iteration makes. A run's goroutine lives on for a moment after it hands
// its slot back, so a sample above the bound is checked against a stack
// census of the goroutines inside LM.
func TestFitGlobalSequenceBoundsGoroutines(t *testing.T) {
	seq := grammyLike(156, 37)
	sampler := &goroutineSampler{base: runtime.NumGoroutine(), fit: goroutineHeader()}
	opts := FitOptions{Workers: 2, Context: samplingCtx{context.Background(), sampler}}
	if _, err := FitGlobalSequence(seq, 0, opts); err != nil {
		t.Fatal(err)
	}
	switch extra := sampler.peak.Load(); {
	case extra > 1:
		t.Fatalf("one-keyword fit at Workers 2 ran %d LM goroutines beside its own", extra)
	case extra < 1:
		t.Fatal("one-keyword fit at Workers 2 ran no LM start concurrently")
	}
}

// goroutineSampler keeps the peak number of goroutines beside the fit's
// own (fit, the header of its stack trace) that do fit work.
type goroutineSampler struct {
	base int
	fit  string
	peak atomic.Int64
}

func (s *goroutineSampler) sample() {
	extra := runtime.NumGoroutine() - s.base
	if extra > 1 {
		buf := make([]byte, 1<<20)
		extra = 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if !strings.HasPrefix(g, s.fit) && strings.Contains(g, "dspot/internal/lm.fitCore") {
				extra++
			}
		}
	}
	for {
		cur := s.peak.Load()
		if int64(extra) <= cur || s.peak.CompareAndSwap(cur, int64(extra)) {
			return
		}
	}
}

// goroutineHeader returns the first line of the calling goroutine's stack
// trace, "goroutine N [running]:" up to the state.
func goroutineHeader() string {
	buf := make([]byte, 64)
	h := string(buf[:runtime.Stack(buf, false)])
	return h[:strings.IndexByte(h, '[')]
}

// samplingCtx samples the goroutines at every Err call.
type samplingCtx struct {
	context.Context
	s *goroutineSampler
}

func (c samplingCtx) Err() error {
	c.s.sample()
	return c.Context.Err()
}
