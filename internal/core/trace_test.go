package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dspot/internal/tensor"
)

// traceTestTensor builds a small tensor from the model family itself: an
// annual shock on top of the canonical base dynamics, split across
// locations with fixed weights.
func traceTestTensor(locations int, n int, seed int64) *tensor.Tensor {
	shocks := []Shock{{Keyword: 0, Period: 52, Start: 20, Width: 2,
		Strength: []float64{8, 8, 8, 8, 8}}}
	obs := synthGlobal(truthBase, shocks, n, 0.005, seed)
	locNames := make([]string, locations)
	for j := range locNames {
		locNames[j] = string(rune('A' + j))
	}
	x := tensor.New([]string{"k"}, locNames, n)
	total := float64(locations*(locations+1)) / 2
	for j := 0; j < locations; j++ {
		w := float64(j+1) / total
		for t := 0; t < n; t++ {
			x.Set(0, j, t, obs[t]*w)
		}
	}
	return x
}

// TestFitWithReport exercises the full traced pipeline and checks the
// report is populated coherently.
func TestFitWithReport(t *testing.T) {
	x := traceTestTensor(3, 52*5+30, 11)
	m, rep, err := FitWithReport(x, FitOptions{Workers: 2, DisableGrowth: true})
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || rep == nil {
		t.Fatal("nil model or report")
	}
	if rep.Keywords != 1 {
		t.Fatalf("report keywords %d, want 1", rep.Keywords)
	}
	if rep.LMIterations <= 0 {
		t.Fatalf("no LM iterations recorded: %+v", rep)
	}
	if rep.ShocksTried < rep.ShocksAccepted {
		t.Fatalf("tried %d < accepted %d", rep.ShocksTried, rep.ShocksAccepted)
	}
	if rep.ShocksAccepted == 0 {
		t.Fatal("no shocks accepted on a shock-bearing series")
	}
	if rep.GlobalDuration <= 0 || rep.LocalDuration <= 0 {
		t.Fatalf("phase durations not recorded: %+v", rep)
	}
	if want := 1 * 3; rep.LocalCells != want {
		t.Fatalf("local cells %d, want %d", rep.LocalCells, want)
	}
	if rep.StageDurations[StageBase] <= 0 {
		t.Fatalf("no base-stage time: %v", rep.StageDurations)
	}
	if len(rep.PerKeyword) != 1 || rep.PerKeyword[0].LMIterations != rep.LMIterations {
		t.Fatalf("per-keyword stats wrong: %+v", rep.PerKeyword)
	}

	out := rep.String()
	for _, want := range []string{"fit report:", "LM iterations", "phases: global", "keyword 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("report String() missing %q:\n%s", want, out)
		}
	}
}

// TestProgressHookEvents checks raw event flow: stage names, keyword
// indices, and that shock events carry their candidate.
func TestProgressHookEvents(t *testing.T) {
	x := traceTestTensor(2, 52*5+30, 7)
	var mu sync.Mutex
	byStage := map[string]int{}
	var shockEv []FitEvent
	opts := FitOptions{Workers: 2, DisableGrowth: true, Progress: func(ev FitEvent) {
		mu.Lock()
		defer mu.Unlock()
		byStage[ev.Stage]++
		if ev.Stage == StageShock {
			shockEv = append(shockEv, ev)
		}
	}}
	if _, err := FitGlobal(x, opts); err != nil {
		t.Fatal(err)
	}
	if byStage[StageBase] == 0 || byStage[StageKeyword] != 1 || byStage[StageGlobal] != 1 {
		t.Fatalf("stage counts: %v", byStage)
	}
	if byStage[StageShock] == 0 {
		t.Fatalf("no shock events on a shock-bearing series: %v", byStage)
	}
	for _, ev := range shockEv {
		if ev.Shock == nil {
			t.Fatal("shock event without candidate")
		}
		if ev.Keyword != 0 {
			t.Fatalf("shock event keyword %d", ev.Keyword)
		}
		if ev.LMIters <= 0 {
			t.Fatalf("shock event without the LM iterations it spent: %+v", ev)
		}
		if ev.Accepted && ev.CostDelta >= 0 {
			t.Fatalf("accepted shock with non-negative cost delta: %+v", ev)
		}
	}
}

// TestFitReportStageLMCounts fits a growth-bearing series and checks that
// the growth stage reports the LM iterations it spends, and that the
// per-stage sums split the keyword totals rather than adding to them.
func TestFitReportStageLMCounts(t *testing.T) {
	truth := truthBase
	truth.TEta, truth.Eta0 = 78, 0.4
	obs := synthGlobal(truth, nil, 156, 0.005, 1)
	tr := NewFitTrace()
	if _, err := FitGlobalSequence(obs, 0, FitOptions{Progress: tr.Hook()}); err != nil {
		t.Fatal(err)
	}
	rep := tr.Report()
	if rep.GrowthAccepted == 0 {
		t.Fatalf("growth not accepted: %+v", rep)
	}
	if rep.StageLMIterations[StageGrowth] <= 0 {
		t.Fatalf("growth stage reports no LM iterations: %v", rep.StageLMIterations)
	}
	sum := 0
	for _, it := range rep.StageLMIterations {
		sum += it
	}
	if sum > rep.LMIterations {
		t.Fatalf("stage LM iterations %v sum to %d, above the total %d",
			rep.StageLMIterations, sum, rep.LMIterations)
	}
	want := fmt.Sprintf("growth=%d (%d)", rep.StageLMIterations[StageGrowth], rep.StageLMStalls[StageGrowth])
	if out := rep.String(); !strings.Contains(out, want) {
		t.Errorf("report String() omits the growth stage's LM iterations %q:\n%s", want, out)
	}
}

// TestNilProgressUnchanged guards the observe-only contract: a traced run
// must produce the same model as an untraced one.
func TestNilProgressUnchanged(t *testing.T) {
	x := traceTestTensor(2, 52*4+20, 5)
	plain, err := FitGlobal(x, FitOptions{Workers: 1, DisableGrowth: true})
	if err != nil {
		t.Fatal(err)
	}
	traced, _, err := FitGlobalWithReport(x, FitOptions{Workers: 1, DisableGrowth: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Shocks) != len(traced.Shocks) {
		t.Fatalf("tracing changed the fit: %d vs %d shocks",
			len(plain.Shocks), len(traced.Shocks))
	}
	for i := range plain.Global {
		if plain.Global[i] != traced.Global[i] {
			t.Fatalf("tracing changed keyword %d params: %+v vs %+v",
				i, plain.Global[i], traced.Global[i])
		}
	}
}

// TestFitTraceConcurrent hammers one collector from many goroutines.
func TestFitTraceConcurrent(t *testing.T) {
	tr := NewFitTrace()
	hook := tr.Hook()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				hook(FitEvent{Stage: StageShock, Keyword: w, Accepted: i%2 == 0})
			}
		}(w)
	}
	wg.Wait()
	rep := tr.Report()
	if rep.ShocksTried != 4000 || rep.ShocksAccepted != 2000 {
		t.Fatalf("tried %d accepted %d, want 4000/2000", rep.ShocksTried, rep.ShocksAccepted)
	}
	if len(rep.PerKeyword) != 8 {
		t.Fatalf("per-keyword entries %d, want 8", len(rep.PerKeyword))
	}
}
