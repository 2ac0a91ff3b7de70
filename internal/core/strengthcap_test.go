package core

import (
	"math"
	"testing"
)

// The refiners' shared strength ceiling. evaluateCandidate and
// refineStrengths already searched up to 80 while the incremental
// warm-start path (refineStrengthsAll) silently clipped at 60 — a strength
// the batch fitter happily assigned would be truncated on the very next
// streaming refit. The constant pins the unified cap.
func TestMaxShockStrengthCap(t *testing.T) {
	if maxShockStrength != 80 {
		t.Fatalf("maxShockStrength = %v, want 80 (keep the refiners' caps unified)", float64(maxShockStrength))
	}
}

// Regression for the 60-vs-80 clipping bug: the warm refit's strength
// polish must recover a true strength of 70, which the old [0, 60] golden
// bracket could never reach.
func TestFitOneStrengthRecoversAboveOldCap(t *testing.T) {
	const n = 120
	const trueStrength = 70.0
	// Gentle β keeps β·ε(t) ≈ 1.5 at the true strength, so the outbreak
	// grows without clamping at N — a saturated plateau would make every
	// strength above ~65 fit equally well and the recovered value
	// unidentifiable.
	p := KeywordParams{N: 100, Beta: 0.022, Delta: 0.25, Gamma: 0.05, I0: 0.005, TEta: NoGrowth}
	shock := Shock{Keyword: 0, Period: NonCyclic, Start: 10, Width: 5, Strength: []float64{trueStrength}}

	truthShocks := []Shock{shock}
	seq := Simulate(&p, n, epsilonOf(truthShocks, n), -1)

	// Warm-start state: right shock shape, strength unknown (zero).
	g := &gfit{seq: seq, n: n, params: p,
		shocks: []Shock{{Keyword: 0, Period: NonCyclic, Start: 10, Width: 5, Strength: []float64{0}}}}
	g.refineStrengthsAll()
	got := g.shocks[0].Strength[0]

	if got <= 60 {
		t.Fatalf("refineStrengthsAll = %g, want ≈%g — a value above the old cap of 60", got, trueStrength)
	}
	if math.Abs(got-trueStrength) > 1 {
		t.Fatalf("refineStrengthsAll = %g, want within 1 of %g", got, trueStrength)
	}
}
