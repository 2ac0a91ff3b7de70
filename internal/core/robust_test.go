package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dspot/internal/numcheck"
	"dspot/internal/tensor"
)

// quickOpts keeps robustness fits cheap: one worker, one outer round.
func quickOpts() FitOptions {
	return FitOptions{Workers: 1, MaxOuterIter: 1, MaxShocks: 2}
}

// bumpySeq returns a fittable synthetic series (a level plus one bump).
func bumpySeq(n int) []float64 {
	seq := make([]float64, n)
	for t := range seq {
		seq[t] = 2 + math.Sin(float64(t)/5)
		if t >= n/2 && t < n/2+3 {
			seq[t] += 6
		}
	}
	return seq
}

func TestFitGlobalSequenceRejectsInf(t *testing.T) {
	seq := bumpySeq(40)
	seq[7] = math.Inf(1)
	_, err := FitGlobalSequence(seq, 0, quickOpts())
	if !errors.Is(err, numcheck.ErrInf) {
		t.Fatalf("FitGlobalSequence with Inf: err = %v, want numcheck.ErrInf", err)
	}
}

func TestFitGlobalSequenceRejectsNegative(t *testing.T) {
	seq := bumpySeq(40)
	seq[3] = -1
	_, err := FitGlobalSequence(seq, 0, quickOpts())
	if !errors.Is(err, numcheck.ErrNegative) {
		t.Fatalf("FitGlobalSequence with negative: err = %v, want numcheck.ErrNegative", err)
	}
}

func TestContinueGlobalSequenceRejectsInf(t *testing.T) {
	seq := bumpySeq(40)
	res, err := FitGlobalSequence(seq, 0, quickOpts())
	if err != nil {
		t.Fatalf("FitGlobalSequence: %v", err)
	}
	longer := append(append([]float64(nil), seq...), math.Inf(-1))
	if _, err := ContinueGlobalSequence(longer, 0, res, quickOpts()); !errors.Is(err, numcheck.ErrInf) {
		t.Fatalf("ContinueGlobalSequence with Inf: err = %v, want numcheck.ErrInf", err)
	}
}

// A warm refit keeps the finite-parameters contract the cold fit keeps:
// when the fitted population overflows on its way back to raw counts (the
// data scale is near the float64 ceiling), the refit errors instead of
// returning N = +Inf.
func TestContinueGlobalSequenceRejectsOverflow(t *testing.T) {
	seq := bumpySeq(60)
	res, err := FitGlobalSequence(seq, 0, FitOptions{})
	if err != nil {
		t.Fatalf("FitGlobalSequence: %v", err)
	}
	// 40 more ticks of the same series scaled to a peak of 1.7e308.
	peak := 0.0
	for _, v := range seq {
		peak = math.Max(peak, v)
	}
	longer := append([]float64(nil), seq...)
	for _, v := range seq[:40] {
		longer = append(longer, v*(1.7e308/peak))
	}
	cont, err := ContinueGlobalSequence(longer, 0, res, FitOptions{})
	if err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("ContinueGlobalSequence at data scale 1.7e308: N = %g, err = %v; want the overflow error",
			cont.Params.N, err)
	}
}

func TestFitGlobalValidatesTensor(t *testing.T) {
	x := tensor.New([]string{"a", "b"}, []string{"us"}, 40)
	for t0 := 0; t0 < 40; t0++ {
		x.Set(0, 0, t0, 1)
		x.Set(1, 0, t0, 1)
	}
	x.Set(1, 0, 9, math.Inf(1))
	_, err := FitGlobal(x, quickOpts())
	if !errors.Is(err, numcheck.ErrInf) {
		t.Fatalf("FitGlobal with Inf cell: err = %v, want numcheck.ErrInf", err)
	}
	if err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("FitGlobal error %v should name the offending keyword", err)
	}
}

// NaN stays legal: it is the missing-value sentinel.
func TestFitGlobalSequenceAllowsMissing(t *testing.T) {
	seq := bumpySeq(60)
	seq[10], seq[11] = tensor.Missing, tensor.Missing
	if _, err := FitGlobalSequence(seq, 0, quickOpts()); err != nil {
		t.Fatalf("FitGlobalSequence with missing ticks: %v", err)
	}
}

// A panicking Progress hook stands in for any bug inside the fit worker:
// the panic must surface as a per-keyword error, never escape the goroutine.
func TestFitGlobalSequenceContainsPanic(t *testing.T) {
	opts := quickOpts()
	opts.Progress = func(ev FitEvent) {
		if ev.Stage == StageBase {
			panic("hook boom")
		}
	}
	res, err := FitGlobalSequence(bumpySeq(40), 0, opts)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v (res=%+v), want contained panic error", err, res)
	}
}

func TestFitGlobalContainsWorkerPanic(t *testing.T) {
	x := tensor.New([]string{"kw"}, []string{"us"}, 40)
	for t0 := 0; t0 < 40; t0++ {
		x.Set(0, 0, t0, bumpySeq(40)[t0])
	}
	tr := NewFitTrace()
	hook := tr.Hook()
	opts := quickOpts()
	opts.Progress = func(ev FitEvent) {
		hook(ev)
		if ev.Stage == StageBase {
			panic("worker boom")
		}
	}
	_, err := FitGlobal(x, opts)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("FitGlobal err = %v, want contained panic error", err)
	}
	if got := tr.Report().Panics; got < 1 {
		t.Fatalf("FitReport.Panics = %d, want >= 1", got)
	}
}

func TestFitLocalContainsCellPanic(t *testing.T) {
	x := tensor.New([]string{"kw"}, []string{"us", "jp"}, 40)
	for t0 := 0; t0 < 40; t0++ {
		v := bumpySeq(40)[t0]
		x.Set(0, 0, t0, v)
		x.Set(0, 1, t0, v/2)
	}
	m, err := FitGlobal(x, quickOpts())
	if err != nil {
		t.Fatalf("FitGlobal: %v", err)
	}
	opts := quickOpts()
	opts.Progress = func(ev FitEvent) {
		if ev.Stage == StageLocalCell && ev.Location == 1 {
			panic("cell boom")
		}
	}
	err = FitLocal(x, m, opts)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("FitLocal err = %v, want contained panic error", err)
	}
	if !strings.Contains(err.Error(), `"jp"`) {
		t.Fatalf("FitLocal error %v should name the panicking cell's location", err)
	}
}

// Stream.Append funnels through the same containment: a panicking refit
// keeps the appended ticks and the last good model.
func TestStreamAppendContainsPanic(t *testing.T) {
	opts := quickOpts()
	opts.Progress = func(ev FitEvent) { panic("stream boom") }
	s := NewStream(opts, 4)
	_, err := s.Append(bumpySeq(40)...)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Append err = %v, want contained panic error", err)
	}
	if s.Len() != 40 {
		t.Fatalf("appended ticks lost: Len = %d, want 40", s.Len())
	}
	if s.Ready() {
		t.Fatalf("stream claims Ready after a failed first fit")
	}
}

// Simulate must return finite counts for arbitrary degenerate parameters.
func TestSimulateSanitises(t *testing.T) {
	cases := []KeywordParams{
		{N: math.Inf(1), Beta: 1, Delta: 0.4, Gamma: 0.5, I0: 0.1, TEta: NoGrowth},
		{N: math.NaN(), Beta: 1, Delta: 0.4, Gamma: 0.5, I0: 0.1, TEta: NoGrowth},
		{N: -5, Beta: 1, Delta: 0.4, Gamma: 0.5, I0: 0.1, TEta: NoGrowth},
		{N: 2, Beta: math.Inf(1), Delta: 0.4, Gamma: 0.5, I0: 0.1, TEta: NoGrowth},
		{N: 2, Beta: 1, Delta: 0.4, Gamma: 0.5, I0: 0.1, Eta0: math.Inf(1), TEta: 3},
		{N: 2, Beta: 1, Delta: 0.4, Gamma: 0.5, I0: math.NaN(), TEta: NoGrowth},
	}
	for ci, p := range cases {
		out := Simulate(&p, 30, nil, -1)
		for t0, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("case %d: Simulate[%d] = %g, want finite non-negative", ci, t0, v)
			}
		}
	}
	eps := make([]float64, 30)
	for i := range eps {
		eps[i] = 1
	}
	eps[4], eps[9] = math.Inf(1), math.NaN()
	p := KeywordParams{N: 2, Beta: 1, Delta: 0.4, Gamma: 0.5, I0: 0.1, TEta: NoGrowth}
	for t0, v := range Simulate(&p, 30, eps, -1) {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("Inf/NaN eps: Simulate[%d] = %g, want finite non-negative", t0, v)
		}
	}
}
