package core

import (
	"context"
	"math"
	"testing"
)

// scheduleFixture is a small base-fit LM problem over a synthetic
// sequence: 60 ticks of SIV dynamics with one bump. calls counts how often
// the problem is assembled, i.e. how many residual or Jacobian evaluations
// LM made.
func scheduleFixture() (g *gfit, pr lmProblem, calls *int) {
	const n = 60
	truth := KeywordParams{N: 1, Beta: 0.6, Delta: 0.4, Gamma: 0.3, I0: 0.02, TEta: NoGrowth}
	eps := epsilonOf([]Shock{{Period: NonCyclic, Start: 25, Width: 3, Strength: []float64{4}}}, n)
	g = &gfit{seq: Simulate(&truth, n, eps, -1), n: n, params: KeywordParams{TEta: NoGrowth}}
	calls = new(int)
	var p KeywordParams
	pr = lmProblem{specs: BaseSensSpecs(), lo: baseLo, hi: baseHi,
		assemble: func(v []float64) (*KeywordParams, []float64) {
			*calls++
			p = g.withBase(v)
			return &p, eps
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
// polish budget of 0 polishes nothing, and a cancelled fit runs no LM.
func TestMultiStartScheduleContract(t *testing.T) {
	sch := schedule{screen: 4, polish: 6, keep: 2}

	// The oracle: every run the schedule should make, made one at a time.
	g, pr, _ := scheduleFixture()
	run := g.lmRunner(pr)
	var screens [][]float64
	for _, s0 := range scheduleStarts {
		if res, err := run(s0, sch.screen); err == nil {
			screens = append(screens, res.Params)
		}
	}
	if len(screens) != 4 {
		t.Fatalf("%d of 5 starts ran, want 4 (the short one fails)", len(screens))
	}
	polish := func(v []float64) []float64 {
		res, err := run(v, sch.polish)
		if err != nil {
			t.Fatal(err)
		}
		return res.Params
	}

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
		g, pr, _ := scheduleFixture()
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
	g, pr, _ = scheduleFixture()
	rec, score := recordingScore(3, 1, 1, 2)
	best, _ := g.multiStart(pr, scheduleStarts, schedule{screen: 4, keep: 2}, score)
	if len(*rec) != 4 || !sameVec(best, screens[1]) {
		t.Fatalf("polish 0: %d scored endpoints and best %v, want the 4 screens and %v", len(*rec), best, screens[1])
	}

	// Cancelled before the call.
	g, pr, calls := scheduleFixture()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g.ctx = ctx
	rec, score = recordingScore()
	best, bestScore := g.multiStart(pr, scheduleStarts, sch, score)
	if best != nil || !math.IsInf(bestScore, 1) || len(*rec) != 0 || *calls != 0 || g.lmIters != 0 {
		t.Fatalf("cancelled: best %v scoring %g after %d scores, %d evaluations and %d LM iterations; want no LM run",
			best, bestScore, len(*rec), *calls, g.lmIters)
	}
}
