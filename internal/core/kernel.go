package core

import "math"

// The SIV recurrence, written once. Every value-only simulation in the
// package — SimulateInto, fitShockStrengths' checkpointed windows, and the
// incremental stream's ticks, tail re-fits and forecasts — is a sivKernel
// built by newKernel and stepped by run, so a batch fit and a stream that
// steps the same model tick by tick agree by construction. The only other
// place the flows are written is simulateSens, whose value step sits
// inline beside the sensitivity lanes because the clamp subgradients need
// each tick's pre-clamp values; it takes its sanitised inputs from
// newKernel too.
//
// run owns the tick loop rather than calling a shared per-tick step: Go
// does not inline a step of this size, and a call per tick costs the
// fitters measurable time (DESIGN.md §6, *One SIV kernel*).

// sivPoint is the SIV fraction state entering one tick.
type sivPoint struct{ s, i, v float64 }

// sivKernel holds the sanitised inputs of one SIV simulation. Copying it is
// cheap, and run never writes to it, so one kernel may step any number of
// checkpoints.
type sivKernel struct {
	beta, delta, gamma float64
	N                  float64  // output scale: 0 when non-finite or negative
	onePlusEta         float64  // growth factor 1+η; a non-finite η counts as 0
	gStart             int      // first tick with the growth factor; MaxInt without growth
	x0                 sivPoint // state entering tick 0
}

// newKernel is the one sanitiser of the simulation inputs. growthRate
// overrides p's own η₀ when >= 0. The fractions are self-containing (clamp01
// plus renormalisation), so the only values that can leak a non-finite or
// negative count into the output are the population scale, the growth
// rate, and ε(t), which run sanitises per tick. Replacing them by safe
// constants gives an optimiser probing a degenerate parameter vector a
// finite (merely terrible) cost. The growth onset is clamped below at 0 and
// left unbounded above, so a stream stepping past the fitted window keeps
// the onset the fit chose.
func newKernel(p *KeywordParams, growthRate float64) sivKernel {
	eta := p.Eta0
	if growthRate >= 0 {
		eta = growthRate
	}
	if math.IsNaN(eta) || math.IsInf(eta, 0) {
		eta = 0
	}
	N := p.N
	if math.IsNaN(N) || math.IsInf(N, 0) || N < 0 {
		N = 0
	}
	gStart := math.MaxInt
	if p.TEta != NoGrowth {
		gStart = max(p.TEta, 0)
	}
	i := clamp01(p.I0)
	return sivKernel{beta: p.Beta, delta: p.Delta, gamma: p.Gamma, N: N,
		onePlusEta: 1 + eta, gStart: gStart, x0: sivPoint{s: 1 - i, i: i}}
}

// run steps the recurrence from x, the state entering tick t0, through the
// len(out) ticks from t0 on: out[j] = N·i(t0+j) under susceptible rate
// ε(t0+j) = eps[j], and the state entering tick t0+len(out) is returned.
// eps nil means ε ≡ 1; otherwise it must hold len(out) entries, and a
// non-finite entry counts as 1. run reads eps[j] before it writes out[j], so
// eps may be out itself.
func (k *sivKernel) run(x sivPoint, t0 int, eps, out []float64) sivPoint {
	beta, delta, gamma, N := k.beta, k.delta, k.gamma, k.N
	onePlusEta := k.onePlusEta
	gFrom := k.gStart - t0 // first out index with the growth factor
	s, i, v := x.s, x.i, x.v
	for j := range out {
		e := 1.0
		if eps != nil {
			e = eps[j]
			if math.IsNaN(e) || math.IsInf(e, 0) {
				e = 1
			}
		}
		out[j] = N * i
		// The growth factor is 1 before the onset, and x·1.0 == x, so the
		// multiply is skipped there.
		infect := beta * s * e * i
		if j >= gFrom {
			infect *= onePlusEta
		}
		lose := delta * i
		wake := gamma * v
		s = clamp01(s - infect + wake)
		i = clamp01(i + infect - lose)
		v = clamp01(v + lose - wake)
		// tot == 1 exactly is common once the dynamics settle, and x/1.0 ==
		// x bitwise, so the three divisions are skippable.
		if tot := s + i + v; tot > 0 && tot != 1 {
			s, i, v = s/tot, i/tot, v/tot
		}
	}
	return sivPoint{s: s, i: i, v: v}
}
