package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dspot/internal/tensor"
)

func TestFitGlobalSequenceCancelMidFitReturnsPromptly(t *testing.T) {
	seq := grammyLike(420, 31)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from inside the fit, right after the first base round: the
	// expensive shock discovery is still ahead, so a fit that ignores the
	// context would keep running for a long time.
	var once sync.Once
	var cancelledAt atomic.Int64
	// Workers 4: the fit's LM starts run concurrently, and a cancel must
	// still stop them within one LM iteration each.
	opts := FitOptions{DisableGrowth: true, Workers: 4, Context: ctx}
	opts.Progress = func(ev FitEvent) {
		if ev.Stage == StageBase {
			once.Do(func() {
				cancelledAt.Store(time.Now().UnixNano())
				cancel()
			})
		}
	}
	res, err := FitGlobalSequence(seq, 0, opts)
	returned := time.Now().UnixNano()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Params != (KeywordParams{}) || res.Shocks != nil {
		t.Fatalf("cancelled fit leaked a partial result: %+v", res)
	}
	at := cancelledAt.Load()
	if at == 0 {
		t.Fatal("fit finished without emitting a base event")
	}
	// "Within one LM iteration" on a 420-tick series is milliseconds; allow
	// a generous margin for slow CI machines.
	if lag := time.Duration(returned - at); lag > 5*time.Second {
		t.Fatalf("fit took %v to stop after cancel", lag)
	}
}

func TestFitCtxPreCancelledReturnsImmediately(t *testing.T) {
	x := tensor.New([]string{"a", "b"}, []string{"x"}, 120)
	for i := 0; i < 2; i++ {
		seq := grammyLike(120, int64(40+i))
		for ti, v := range seq {
			x.Set(i, 0, ti, v)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{2, 4} {
		start := time.Now()
		m, err := FitCtx(ctx, x, FitOptions{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Workers %d: err = %v, want context.Canceled", workers, err)
		}
		if m != nil {
			t.Fatalf("Workers %d: cancelled fit returned a model", workers)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("Workers %d: pre-cancelled fit still ran for %v", workers, elapsed)
		}
	}
}

func TestFitCancelDuringLocalPhase(t *testing.T) {
	const n = 140
	x := tensor.New([]string{"a"}, []string{"x", "y", "z"}, n)
	seq := grammyLike(n, 42)
	for j := 0; j < 3; j++ {
		for ti, v := range seq {
			x.Set(0, j, ti, v*(1+0.2*float64(j)))
		}
	}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		opts := FitOptions{Workers: workers, DisableGrowth: true, Context: ctx}
		opts.Progress = func(ev FitEvent) {
			if ev.Stage == StageLocalCell {
				once.Do(cancel) // global phase done; cancel mid-local
			}
		}
		_, err := Fit(x, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Workers %d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestStreamAppendFailedRefitKeepsResult is the regression for Append
// clobbering the warm-start state: a refit that fails must leave the last
// good fit (and hence Model/Forecast and the next warm start) untouched.
func TestStreamAppendFailedRefitKeepsResult(t *testing.T) {
	full := grammyLike(340, 33)
	s := NewStream(FitOptions{DisableGrowth: true}, 40)
	if _, err := s.Append(full[:260]...); err != nil {
		t.Fatal(err)
	}
	if !s.Ready() {
		t.Fatal("stream not fitted after first append")
	}
	before := s.Model()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // force the triggered refit to fail
	refitted, err := s.AppendCtx(ctx, full[260:300]...)
	if refitted || !errors.Is(err, context.Canceled) {
		t.Fatalf("AppendCtx = (%v, %v), want failed refit", refitted, err)
	}
	if s.Len() != 300 {
		t.Fatalf("appended ticks dropped: len = %d, want 300", s.Len())
	}
	if !s.Ready() {
		t.Fatal("stream lost its fit after a failed refit")
	}
	after := s.Model()
	if after == nil {
		t.Fatal("Model() = nil after failed refit")
	}
	if err := after.Validate(); err != nil {
		t.Fatalf("model corrupted by failed refit: %v", err)
	}
	if after.Global[0] != before.Global[0] {
		t.Fatalf("warm-start params clobbered: %+v -> %+v", before.Global[0], after.Global[0])
	}
	if len(after.Shocks) != len(before.Shocks) {
		t.Fatalf("shocks clobbered: %d -> %d", len(before.Shocks), len(after.Shocks))
	}
	if s.Forecast(8) == nil {
		t.Fatal("Forecast = nil after failed refit")
	}

	// The next trigger with a live context retries and succeeds.
	refitted, err = s.Append(full[300:]...)
	if err != nil {
		t.Fatal(err)
	}
	if !refitted {
		t.Fatal("refit not retried after the failed one")
	}
}

// TestFitShockStrengthsDoesNotClobberBacking is the regression for the
// candidate-evaluation aliasing bug: building the working set with append
// could write the candidate into spare capacity of the accepted-shock
// slice's backing array, corrupting a shock a later append would expose.
func TestFitShockStrengthsDoesNotClobberBacking(t *testing.T) {
	seq := grammyLike(160, 35)
	norm, _ := tensor.Normalize(seq)
	g := &gfit{seq: norm, n: len(norm), opts: FitOptions{}.withDefaults(),
		params: truthBase}
	backing := make([]Shock, 2)
	backing[0] = Shock{Keyword: 0, Period: NonCyclic, Start: 10, Width: 2,
		Strength: []float64{3}}
	sentinel := Shock{Keyword: 0, Period: NonCyclic, Start: 120, Width: 1,
		Strength: []float64{7}}
	backing[1] = sentinel
	g.shocks = backing[:1] // spare capacity holds the sentinel

	cand := Shock{Keyword: 0, Period: 52, Start: 6, Width: 2}
	g.fitShockStrengths(&cand)

	if backing[1].Period != sentinel.Period || backing[1].Start != sentinel.Start ||
		backing[1].Width != sentinel.Width {
		t.Fatalf("candidate leaked into the live backing array: %+v", backing[1])
	}
	if len(cand.Strength) != cand.Occurrences(g.n) {
		t.Fatalf("candidate strengths not fitted: %v", cand.Strength)
	}
}

// TestFitLocalBoundsGoroutines is the regression for the local phase
// spawning one goroutine per (keyword, location) cell up front: the worker
// pool must keep the live goroutine count near Workers, not d×l.
func TestFitLocalBoundsGoroutines(t *testing.T) {
	const n = 90
	d, l := 2, 30
	keywords := []string{"a", "b"}
	locations := make([]string, l)
	for j := range locations {
		locations[j] = string(rune('A' + j))
	}
	x := tensor.New(keywords, locations, n)
	for i := 0; i < d; i++ {
		seq := grammyLike(n, int64(50+i))
		for j := 0; j < l; j++ {
			for ti, v := range seq {
				x.Set(i, j, ti, v*(1+0.01*float64(j)))
			}
		}
	}
	gopts := FitOptions{Workers: 2, DisableGrowth: true, DisableShocks: true}
	m, err := FitGlobal(x, gopts)
	if err != nil {
		t.Fatal(err)
	}
	base := int64(runtime.NumGoroutine())
	var peak atomic.Int64
	opts := gopts
	opts.Progress = func(ev FitEvent) {
		if ev.Stage != StageLocalCell {
			return
		}
		// Sampled from inside a worker while cells are in flight: with the
		// old spawn-all implementation this sees ~d×l live goroutines.
		g := int64(runtime.NumGoroutine())
		for {
			cur := peak.Load()
			if g <= cur || peak.CompareAndSwap(cur, g) {
				break
			}
		}
	}
	if err := FitLocal(x, m, opts); err != nil {
		t.Fatal(err)
	}
	if extra := peak.Load() - base; extra > 10 {
		t.Fatalf("local fit of %d cells with Workers=2 ran %d extra goroutines", d*l, extra)
	}
}
