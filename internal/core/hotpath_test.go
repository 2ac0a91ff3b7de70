package core

import (
	"testing"

	"dspot/internal/tensor"
)

// The into-variants introduced by the hot-path pass are memory plumbing,
// not new algorithms: every one of them must be bit-identical to the
// allocating implementation it shadows. These tests pin that down, so a
// future "optimisation" that reorders a float accumulation fails loudly
// instead of silently drifting the fitted models.

func hotpathParams() KeywordParams {
	return KeywordParams{N: 120, Beta: 0.6, Delta: 0.35, Gamma: 0.9, I0: 0.01, TEta: NoGrowth}
}

// Two cyclic shocks with overlapping occurrence windows plus a one-off that
// lands inside one of them: the accumulation order over shared ticks is
// exactly what a windowed ε(t) rebuild must reproduce.
func hotpathShocks() []Shock {
	return []Shock{
		{Keyword: 0, Period: 20, Start: 10, Width: 6, Strength: []float64{3.5, 2.25, 4.125, 1.75, 2.5}},
		{Keyword: 0, Period: 20, Start: 13, Width: 5, Strength: []float64{1.1, 0.7, 2.3, 0.9, 1.6}},
		{Keyword: 0, Period: NonCyclic, Start: 31, Width: 4, Strength: []float64{5.5}},
	}
}

func TestSimulateIntoMatchesSimulate(t *testing.T) {
	n := 96
	eps := epsilonOf(hotpathShocks(), n)
	cases := []struct {
		name string
		p    KeywordParams
		rate float64
	}{
		{"no-growth", hotpathParams(), -1},
		{"growth", KeywordParams{N: 120, Beta: 0.6, Delta: 0.35, Gamma: 0.9, I0: 0.01, Eta0: 0.02, TEta: 30}, -1},
		{"local-rate", hotpathParams(), 0.015},
	}
	for _, tc := range cases {
		want := Simulate(&tc.p, n, eps, tc.rate)

		// Fresh allocation path (nil dst).
		got := SimulateInto(nil, &tc.p, n, eps, tc.rate)
		assertBitEqual(t, tc.name+"/nil-dst", want, got)

		// Reuse path: a dirty oversized buffer must be overwritten in place.
		buf := make([]float64, n+7)
		for i := range buf {
			buf[i] = -123.456
		}
		got = SimulateInto(buf, &tc.p, n, eps, tc.rate)
		assertBitEqual(t, tc.name+"/reused-dst", want, got)
		if &got[0] != &buf[0] {
			t.Fatalf("%s: SimulateInto allocated despite sufficient capacity", tc.name)
		}
	}
}

func TestResidualsIntoMatchesResiduals(t *testing.T) {
	obs := []float64{1, tensor.Missing, 3, 4, tensor.Missing, 6}
	est := []float64{1.5, 2, 2.5, 4.25, 5, 5.5}
	want := residuals(obs, est)

	got := residualsInto(nil, obs, est)
	assertBitEqual(t, "nil-dst", want, got)

	buf := make([]float64, len(obs))
	got = residualsInto(buf, obs, est)
	assertBitEqual(t, "reused-dst", want, got)
	if &got[0] != &buf[0] {
		t.Fatal("residualsInto allocated despite sufficient capacity")
	}
}

func TestEpsilonFromShocksIntoReuse(t *testing.T) {
	shocks := hotpathShocks()
	n := 96
	want := epsilonOf(shocks, n)

	buf := make([]float64, n)
	for i := range buf {
		buf[i] = 99
	}
	got := epsilonInto(buf, 0, shocks, false, nil)
	assertBitEqual(t, "reused-dst", want, got)
	if &got[0] != &buf[0] {
		t.Fatal("epsilonInto allocated despite sufficient capacity")
	}
}

// A windowed ε(t) rebuild is the caching workhorse: after a single
// occurrence strength changes, rebuilding only that occurrence's window
// with epsilonInto must leave the whole profile bit-identical to a
// from-scratch build — including ticks where overlapping occurrences of
// *other* shocks contribute, since float addition is not associative.
func TestRebuildEpsilonWindowMatchesFullRebuild(t *testing.T) {
	shocks := hotpathShocks()
	n := 96
	eps := epsilonOf(shocks, n)

	perturb := []struct{ si, occ int }{
		{0, 2}, // overlaps shock 1's windows
		{1, 1}, // overlaps shock 0's windows
		{2, 0}, // one-off inside shock 0/1 territory
		{0, 4}, // last occurrence, ending at n (start 90, width 6)
	}
	for _, pb := range perturb {
		s := &shocks[pb.si]
		s.Strength[pb.occ] *= 1.37
		lo := s.OccurrenceStart(pb.occ)
		hi := min(lo+s.Width, n)
		epsilonInto(eps[lo:hi], lo, shocks, false, nil)
		want := epsilonOf(shocks, n)
		assertBitEqual(t, "after-perturb", want, eps)
	}

	// A window covering the whole range rebuilds the stale profile in place.
	epsilonInto(eps, 0, shocks, false, nil)
	assertBitEqual(t, "whole-window", epsilonOf(shocks, n), eps)
}

// The allocation gates of the tentpole, at the figure benchmarks' sequence
// length: SimulateInto with an adequate buffer allocates nothing, and the
// allocating Simulate wrapper costs exactly its one output slice.
func TestSimulateAllocationGates(t *testing.T) {
	const n = 576
	p := hotpathParams()
	eps := make([]float64, n)
	for i := range eps {
		eps[i] = 1
	}
	dst := make([]float64, n)

	if a := testing.AllocsPerRun(50, func() {
		SimulateInto(dst, &p, n, eps, -1)
	}); a != 0 {
		t.Fatalf("SimulateInto with adequate dst: %.0f allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		Simulate(&p, n, eps, -1)
	}); a > 1 {
		t.Fatalf("Simulate at n=%d: %.0f allocs/op, want <= 1", n, a)
	}
}

func assertBitEqual(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		wi, gi := want[i], got[i]
		if wi != gi && !(wi != wi && gi != gi) { // NaN == NaN for our purposes
			t.Fatalf("%s: index %d: got %x, want %x", label, i, gi, wi)
		}
	}
}
