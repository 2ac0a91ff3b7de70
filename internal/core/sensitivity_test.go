package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The analytic sensitivity kernel makes two promises, each pinned here:
//
//  1. Its simulated values are bit-identical to SimulateInto — switching a
//     fitter from FD probes to analytic Jacobians must not move the model
//     by even one ulp through the residual path.
//  2. Its Jacobian agrees with central finite differences to < 1e-5
//     relative error wherever FD itself is trustworthy (checked by
//     Richardson self-consistency: FD at h and h/2 must agree, otherwise
//     the point sits on a clamp/renorm kink and the documented subgradient
//     convention governs instead).

// sensCase is one (params, shocks, growthRate) point of the agreement table.
type sensCase struct {
	name string
	p    KeywordParams
	rate float64
	// shocks build ε(t); nil means eps == nil (constant 1).
	shocks []Shock
}

func sensCases() []sensCase {
	shocks := hotpathShocks()
	return []sensCase{
		{"plain", hotpathParams(), -1, shocks},
		{"no-eps", hotpathParams(), -1, nil},
		{"growth", KeywordParams{N: 120, Beta: 0.6, Delta: 0.35, Gamma: 0.9,
			I0: 0.01, Eta0: 0.4, TEta: 30}, -1, shocks},
		{"growth-at-zero", KeywordParams{N: 80, Beta: 0.5, Delta: 0.3, Gamma: 0.7,
			I0: 0.02, Eta0: 0.15, TEta: 0}, -1, shocks},
		{"local-rate", hotpathParams(), 0.015, shocks},
		// Epidemic-style point: slow logistic rise, no shocks, no growth —
		// the EpidemicScenario regime (β small, γ ≈ 0 keeps v absorbing).
		{"epidemic", KeywordParams{N: 100, Beta: 0.08, Delta: 0.01,
			Gamma: 1e-6, I0: 0.01, TEta: NoGrowth}, -1, nil},
		// Spiky Hawkes-like point: strong narrow shocks over fast decay.
		{"spiky", KeywordParams{N: 200, Beta: 0.9, Delta: 0.8, Gamma: 0.3,
			I0: 0.005, TEta: NoGrowth}, -1, []Shock{
			{Keyword: 0, Period: 30, Start: 12, Width: 2, Strength: []float64{9, 11, 8}},
		}},
	}
}

func sensSpecsFor(shocks []Shock, withEta bool, n int) []SensSpec {
	specs := BaseSensSpecs()
	if withEta {
		specs = append(specs, SensSpec{Param: SensEta0})
	}
	for si := range shocks {
		s := &shocks[si]
		for m := 0; m < s.Occurrences(n); m++ {
			specs = append(specs, StrengthSpec(s, m, n))
		}
	}
	return specs
}

func TestSensitivityValuesMatchSimulate(t *testing.T) {
	n := 96
	dirty := epsilonOf(hotpathShocks(), n)
	dirty[17] = math.NaN()
	dirty[40] = math.Inf(1)
	cases := append(sensCases(),
		sensCase{"degenerate-N", KeywordParams{N: -5, Beta: 0.6, Delta: 0.35,
			Gamma: 0.9, I0: 0.01, TEta: NoGrowth}, -1, hotpathShocks()},
		sensCase{"degenerate-eta", KeywordParams{N: 120, Beta: 0.6, Delta: 0.35,
			Gamma: 0.9, I0: 0.01, Eta0: math.NaN(), TEta: 20}, -1, hotpathShocks()},
		sensCase{"degenerate-i0", KeywordParams{N: 120, Beta: 0.6, Delta: 0.35,
			Gamma: 0.9, I0: 1.5, TEta: NoGrowth}, -1, hotpathShocks()},
		sensCase{"clamping", KeywordParams{N: 50, Beta: 40, Delta: 0.2,
			Gamma: 0.9, I0: 0.3, TEta: NoGrowth}, -1, hotpathShocks()},
	)
	for _, tc := range cases {
		var eps []float64
		if tc.shocks != nil {
			eps = epsilonOf(tc.shocks, n)
		}
		specs := sensSpecsFor(tc.shocks, true, n)
		want := SimulateInto(nil, &tc.p, n, eps, tc.rate)
		got, jac := SimulateWithSensitivities(nil, nil, &tc.p, n, eps, tc.rate, specs)
		assertBitEqual(t, tc.name, want, got)
		for k, v := range jac {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite jacobian entry %d: %v", tc.name, k, v)
			}
		}

		// The dirty-ε general path must stay bit-identical too.
		want = SimulateInto(nil, &tc.p, n, dirty, tc.rate)
		got, _ = SimulateWithSensitivities(nil, nil, &tc.p, n, dirty, tc.rate, specs)
		assertBitEqual(t, tc.name+"/dirty-eps", want, got)
	}
}

// perturb returns a copy of (p, eps) with spec j moved by h. eps is copied
// only when the spec is a strength lane.
func perturb(p KeywordParams, eps []float64, sp SensSpec, h float64) (KeywordParams, []float64) {
	switch sp.Param {
	case SensN:
		p.N += h
	case SensBeta:
		p.Beta += h
	case SensDelta:
		p.Delta += h
	case SensGamma:
		p.Gamma += h
	case SensI0:
		p.I0 += h
	case SensEta0:
		p.Eta0 += h
	case SensStrength:
		e := append([]float64(nil), eps...)
		for t := sp.Lo; t < sp.Hi; t++ {
			e[t] += h
		}
		eps = e
	}
	return p, eps
}

// fdProbe simulates at the point perturbed by h along spec sp.
func fdProbe(p *KeywordParams, n int, eps []float64, rate float64,
	sp SensSpec, h float64) []float64 {
	pp, ep := perturb(*p, eps, sp, h)
	return SimulateInto(nil, &pp, n, ep, rate)
}

// fdColumn writes the central finite difference ∂out/∂spec at step h into dst.
func fdColumn(dst []float64, p *KeywordParams, n int, eps []float64,
	rate float64, sp SensSpec, h float64) {
	up := fdProbe(p, n, eps, rate, sp, h)
	dn := fdProbe(p, n, eps, rate, sp, -h)
	for t := 0; t < n; t++ {
		dst[t] = (up[t] - dn[t]) / (2 * h)
	}
}

// fdStep picks the central-difference step for one lane: relative to the
// parameter's magnitude, with a floor for near-zero parameters.
func fdStep(p *KeywordParams, sp SensSpec) float64 {
	base := 1.0
	switch sp.Param {
	case SensN:
		base = math.Abs(p.N)
	case SensBeta:
		base = math.Abs(p.Beta)
	case SensDelta:
		base = math.Abs(p.Delta)
	case SensGamma:
		base = math.Abs(p.Gamma)
	case SensI0:
		base = math.Abs(p.I0)
	case SensEta0:
		base = math.Abs(p.Eta0)
	}
	if base < 1e-2 {
		base = 1e-2
	}
	return 1e-4 * base
}

// fdProbesSmooth reports whether the ±h central-difference probes of one
// lane stay on a single side of the parameter-sanitisation boundaries
// (I0 ∈ [0,1], N ≥ 0) and of zero for the flow rates. A straddling probe
// pair averages two different one-sided slopes — exactly-linear on each
// side, so the Richardson gate cannot see the kink — and the documented
// subgradient convention governs instead of FD.
//
// The flow-rate zero crossings matter because a negative rate reverses its
// flow and lands a compartment on a different clamp: the fuzzer found
// δ ≈ 1e-76, where the −h probe makes lose = δ·i negative, v clamps at 0
// instead of carrying δ·i, the renormalisation activates on that side
// only, and the central difference reports a slope −i0·(1 − i0/2) that is
// an average of the two regimes rather than the true derivative −i0. The
// sidedness gate inside checkJacobianAgainstFD is calibrated for kinks
// large relative to the slope and cannot catch a jump of order i0·|f'|, so
// the probe has to be refused up front. The same applies to the sign of
// the whole infection flow, which flips at 1+η₀ = 0 and at ε(t) = 0 (the
// fuzzer found η₀ = −1.00005, where the dynamics are dead but the +h probe
// revives them).
func fdProbesSmooth(p *KeywordParams, sp SensSpec, h float64, eps []float64) bool {
	oneSided := func(x float64) bool { return (x-h < 0) == (x+h < 0) }
	switch sp.Param {
	case SensN:
		return oneSided(p.N)
	case SensI0:
		return oneSided(p.I0) && (p.I0-h > 1) == (p.I0+h > 1)
	case SensBeta:
		return oneSided(p.Beta)
	case SensDelta:
		return oneSided(p.Delta)
	case SensGamma:
		return oneSided(p.Gamma)
	case SensEta0:
		return oneSided(p.Eta0) && oneSided(1+p.Eta0)
	case SensStrength:
		for t := sp.Lo; t < sp.Hi && t < len(eps); t++ {
			if !oneSided(eps[t]) {
				return false
			}
		}
	}
	return true
}

// checkJacobianAgainstFD compares the analytic Jacobian with Richardson-gated
// central differences. Entries where FD at h and h/2 disagree sit on a
// clamp/renorm kink (or are drowned in roundoff); there the subgradient
// convention governs and FD is not an oracle, so the strict check is skipped.
// The gate must not skip everything: the caller gets the checked-entry count.
func checkJacobianAgainstFD(t *testing.T, name string, p *KeywordParams, n int,
	eps []float64, rate float64, specs []SensSpec) (checked int) {
	t.Helper()
	np := len(specs)
	out, jac := SimulateWithSensitivities(nil, nil, p, n, eps, rate, specs)
	outMax := 0.0
	for _, v := range out {
		if a := math.Abs(v); a > outMax {
			outMax = a
		}
	}
	fd2 := make([]float64, n)
	for j, sp := range specs {
		h := fdStep(p, sp)
		if !fdProbesSmooth(p, sp, h, eps) {
			continue
		}
		// A central difference cannot resolve derivatives below the
		// cancellation floor ~ulp(out)/h: on a near-zero column (γ with v
		// pinned at 0, say) FD reports pure rounding noise while the
		// analytic lane is exactly (or denormally) zero. Entries where both
		// sides sit under the floor agree as well as FD can measure.
		noise := 1e-12 * (outMax + 1) / h
		// Hard resolution limit of the central difference itself: each
		// probe output is rounded to ~0.5 ulp(out), so u−d carries up to a
		// few ulp(outMax) of bias that survives step-halving bit-for-bit
		// (the same rounding pattern at h and h/2 — Richardson cannot see
		// it). A derivative of O(1) on outputs of O(1e6) with h = 1e-6 can
		// only be measured to ~1e-4 absolute; demand no more than that.
		fdres := 4 * 0x1p-52 * (outMax + 1) / (2 * h)
		up := fdProbe(p, n, eps, rate, sp, h)
		dn := fdProbe(p, n, eps, rate, sp, -h)
		fdColumn(fd2, p, n, eps, rate, sp, h/2)
		colMax := 0.0
		for t := 0; t < n; t++ {
			if a := math.Abs(jac[t*np+j]); a > colMax {
				colMax = a
			}
			if a := math.Abs(fd2[t]); a > colMax {
				colMax = a
			}
		}
		gate := 1e-5 * (colMax + 1)
		for ti := 0; ti < n; ti++ {
			fd1 := (up[ti] - dn[ti]) / (2 * h)
			if ref := math.Max(math.Abs(fd1), math.Abs(fd2[ti])); ref < noise {
				// FD's estimate is below its own resolution: either the
				// derivative is zero as far as FD can measure (agree if the
				// analytic lane is under the floor too), or the smooth
				// regime is narrower than any practical step — the fuzzer's
				// η₀ = −1 with β ~ 1e116 has a true slope N·β·s·i that holds
				// only for |dη| < 1e-75 before i clamps at 1, so every probe
				// lands on the clamp and FD is blind, not authoritative.
				if math.Abs(jac[ti*np+j]) < noise {
					checked++
				}
				continue
			}
			if math.Abs(fd1-fd2[ti]) > gate {
				continue // FD not self-consistent across steps: kink or roundoff
			}
			// Richardson's h² cancellation is only as good as the next term
			// is small: when the step-halving spread is already more than a
			// few 1e-6 of the derivative itself (stiff dynamics — the fuzzer
			// reaches β ~ 1e6, where the per-tick gain makes the h⁴ residue
			// visible), the extrapolated reference cannot deliver the 1e-5
			// tolerance and FD stops being an oracle for the entry.
			if math.Abs(fd1-fd2[ti]) > 5e-6*math.Max(math.Abs(fd1), math.Abs(fd2[ti])) {
				continue
			}
			// Sidedness check: a clamp boundary crossed by exactly one
			// probe leaves both half-steps linear — invisible to the
			// step-halving gate above — but the forward and backward
			// one-sided slopes disagree by the full subgradient jump.
			fdF := (up[ti] - out[ti]) / h
			fdB := (out[ti] - dn[ti]) / h
			if math.Abs(fdF-fdB) > 1e-2*(math.Abs(fd1)+1e-3*(colMax+1)) {
				continue // one-sided kink: the subgradient convention governs
			}
			// Richardson extrapolation cancels the O(h²) truncation term,
			// so the reference is accurate wherever the gates passed.
			a, f := jac[ti*np+j], (4*fd2[ti]-fd1)/3
			denom := math.Max(math.Max(math.Abs(a), math.Abs(f)), 1e-4*(colMax+1))
			if rel := math.Abs(a-f) / denom; rel > 1e-5 && math.Abs(a-f) > fdres {
				// Before declaring the analytic lane wrong, re-measure with a
				// 1024× smaller step. Stiff dynamics fold branch flips (the
				// renormalisation toggling on exact tot==1, clamp boundaries)
				// into facets narrower than the canonical step; a central
				// difference spanning a facet boundary reports the average of
				// two nearby slopes — stable under step-halving and two-sided,
				// so every gate above passes — yet it is not the derivative AT
				// the point. Fuzz find: β ~ 1e6 with γ ~ 5e15 has facet width
				// ~1 in β; fd at h=106 sits 2.3e-5 relative from the true
				// slope while fd at h≈0.1 matches the analytic lane to 5e-10
				// (confirmed against a 200-bit dual-number sweep).
				ht := h / 1024
				upT := fdProbe(p, n, eps, rate, sp, ht)
				dnT := fdProbe(p, n, eps, rate, sp, -ht)
				up2T := fdProbe(p, n, eps, rate, sp, ht/2)
				dn2T := fdProbe(p, n, eps, rate, sp, -ht/2)
				fd1t := (upT[ti] - dnT[ti]) / (2 * ht)
				fd2t := (up2T[ti] - dn2T[ti]) / ht
				noiseT := 1e-12 * (outMax + 1) / ht
				refT := math.Max(math.Abs(fd1t), math.Abs(fd2t))
				if refT < noiseT || math.Abs(fd1t-fd2t) > 5e-6*refT+noiseT {
					continue // no step size resolves this entry: FD is not authoritative
				}
				ft := (4*fd2t - fd1t) / 3
				denomT := math.Max(math.Max(math.Abs(a), math.Abs(ft)), 1e-4*(colMax+1))
				// The small step buys facet resolution at the price of noise:
				// the float64 trajectory itself is only accurate to ~1e-12
				// relative, so ft carries ~noiseT of scatter even when the
				// step-halving pair happens to agree (the allowance in the
				// gate above includes noiseT). It can therefore only confirm
				// a disagreement bigger than its own credibility floor.
				if relT := math.Abs(a-ft) / denomT; relT > 1e-5 && math.Abs(a-ft) > 1024*fdres+4*noiseT {
					// Last resort: is the pointwise derivative even stable at
					// this scale? Sample the analytic lane at ±ht and ±ht/2
					// nudges of the same parameter. When the samples jitter by
					// the order of the disagreement, the facets are narrower
					// than ht too (the fuzzer found widths near 1e-10 relative
					// — an ulp-scale γ change moved the true slope by 5e-5
					// relative, verified against the 200-bit sweep) and FD at
					// every practical step reads a cross-facet average: no
					// oracle. Only a locally-stable analytic lane that still
					// disagrees with a self-consistent FD is a real bug.
					spread := 0.0
					for _, hn := range []float64{ht, -ht, ht / 2, -ht / 2} {
						pp, ep := perturb(*p, eps, sp, hn)
						_, jacN := SimulateWithSensitivities(nil, nil, &pp, n, ep, rate, specs)
						if d := math.Abs(jacN[ti*np+j] - a); d > spread {
							spread = d
						}
					}
					if spread > math.Max(1e-5*denomT, 0.25*math.Abs(a-ft)) {
						continue // derivative chaotic at micro-scale: FD cannot arbitrate
					}
					t.Errorf("%s: lane %d (%v) tick %d: analytic %.12g vs FD %.12g (rel %.3g; small-step FD %.12g, rel %.3g, analytic spread %.3g)",
						name, j, sp.Param, ti, a, f, rel, ft, relT, spread)
					return checked
				}
			}
			checked++
		}
	}
	return checked
}

func TestJacobianMatchesFiniteDifference(t *testing.T) {
	n := 96
	for _, tc := range sensCases() {
		var eps []float64
		if tc.shocks != nil {
			eps = epsilonOf(tc.shocks, n)
		}
		specs := sensSpecsFor(tc.shocks, true, n)
		checked := checkJacobianAgainstFD(t, tc.name, &tc.p, n, eps, tc.rate, specs)
		if min := n * len(specs) / 2; checked < min {
			t.Errorf("%s: Richardson gate skipped too much: %d of %d entries checked",
				tc.name, checked, n*len(specs))
		}
	}
}

// TestSensitivitySubgradientConventions pins the documented derivative
// choices at the non-smooth points, where FD cannot arbitrate.
func TestSensitivitySubgradientConventions(t *testing.T) {
	n := 24
	specs := sensSpecsFor(nil, true, n)
	np := len(specs)
	zeroLane := func(name string, jac []float64, lane int) {
		t.Helper()
		for ti := 0; ti < n; ti++ {
			if v := jac[ti*np+lane]; v != 0 {
				t.Fatalf("%s: lane %d tick %d: got %v, want exactly 0", name, lane, ti, v)
			}
		}
	}

	// Sanitised inputs are locally constant: derivative exactly 0.
	p := KeywordParams{N: -3, Beta: 0.5, Delta: 0.3, Gamma: 0.6, I0: 0.01, TEta: NoGrowth}
	_, jac := SimulateWithSensitivities(nil, nil, &p, n, nil, -1, specs)
	zeroLane("negative-N", jac, 0)

	p = KeywordParams{N: 100, Beta: 0.5, Delta: 0.3, Gamma: 0.6, I0: 1.25, TEta: NoGrowth}
	_, jac = SimulateWithSensitivities(nil, nil, &p, n, nil, -1, specs)
	zeroLane("clamped-I0", jac, 4)

	p = KeywordParams{N: 100, Beta: 0.5, Delta: 0.3, Gamma: 0.6, I0: 0.01,
		Eta0: math.Inf(1), TEta: 5}
	_, jac = SimulateWithSensitivities(nil, nil, &p, n, nil, -1, specs)
	zeroLane("non-finite-eta", jac, 5)

	// A growthRate override sidelines the keyword's own η₀ entirely.
	p = KeywordParams{N: 100, Beta: 0.5, Delta: 0.3, Gamma: 0.6, I0: 0.01,
		Eta0: 0.2, TEta: 5}
	_, jac = SimulateWithSensitivities(nil, nil, &p, n, nil, 0.1, specs)
	zeroLane("rate-override", jac, 5)

	// Active clamp01 kills the flow through the clamped component: with β
	// large enough that i(1) clamps to 1 and s(1) to 0 at the first step
	// (δ = γ = 0 so v stays exactly 0 and tot stays exactly 1), the lanes
	// that act only through infect — β, γ, i0 — have ∂out/∂θ = 0 at t=1:
	// the clamped state is locally constant in them.
	p = KeywordParams{N: 100, Beta: 500, Delta: 0, Gamma: 0, I0: 0.5, TEta: NoGrowth}
	out, jac := SimulateWithSensitivities(nil, nil, &p, n, nil, -1, specs)
	if out[1] != p.N {
		t.Fatalf("clamp case did not saturate: out[1] = %v, want N = %v", out[1], p.N)
	}
	for _, lane := range []int{1, 3, 4} { // β, γ, i0
		if v := jac[1*np+lane]; v != 0 {
			t.Fatalf("saturated-clamp: lane %d at t=1: got %v, want 0 (clamp subgradient)", lane, v)
		}
	}
	// The N lane keeps its direct term: ∂out[1]/∂N = i(1) = 1.
	if v := jac[1*np+0]; v != 1 {
		t.Fatalf("saturated-clamp: N lane at t=1: got %v, want 1", v)
	}
	// The δ lane pins the renormalisation convention at tot == 1 exactly:
	// v(1) = δ·i(0) escapes the clamps, so tot = 1 + δ·i(0) and the
	// quotient rule gives ∂i(1)/∂δ = −i(0) = −1/2 even though the value
	// path skipped the ÷1.0. ∂out[1]/∂δ = −N/2, exactly.
	if v := jac[1*np+2]; v != -p.N/2 {
		t.Fatalf("saturated-clamp: δ lane at t=1: got %v, want %v (quotient rule at tot==1)", v, -p.N/2)
	}
}

// TestSensitivityScratchAllocs pins the fitter-facing contract: with
// caller-owned buffers, a sensitivity pass allocates nothing.
func TestSensitivityScratchAllocs(t *testing.T) {
	n := 96
	shocks := hotpathShocks()
	eps := epsilonOf(shocks, n)
	specs := sensSpecsFor(shocks, true, n)
	p := hotpathParams()
	out := make([]float64, n)
	jac := make([]float64, n*len(specs))
	scratch := make([]float64, 3*len(specs))
	allocs := testing.AllocsPerRun(20, func() {
		simulateSens(out, jac, scratch, &p, n, eps, -1, specs)
	})
	if allocs != 0 {
		t.Fatalf("simulateSens with caller buffers: %v allocs/op, want 0", allocs)
	}
}

// FuzzJacobianConsistency drives arbitrary parameter vectors through the
// sensitivity kernel. The absolute contract: values bit-identical to
// SimulateInto, Jacobian always finite, and FD agreement wherever the
// Richardson gate certifies FD itself.
func FuzzJacobianConsistency(f *testing.F) {
	mk := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	// Seeds: (N, β, δ, γ, i0, η₀, tEta, strength) tuples.
	f.Add(mk(120, 0.6, 0.35, 0.9, 0.01, 0, -1, 3.5))
	f.Add(mk(120, 0.6, 0.35, 0.9, 0.01, 0.4, 30, 3.5))
	f.Add(mk(50, 40, 0.2, 0.9, 0.3, 0, -1, 10))
	f.Add(mk(math.NaN(), 0.6, 0.35, 0.9, 1.5, math.Inf(1), 3, -2))
	f.Add(mk(1e300, 1e-9, 0, 2, 0, 0, 0, 80))

	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float64, 8)
		for i := range vals {
			if 8*i+8 <= len(data) {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			}
		}
		tEta := NoGrowth
		if v := vals[6]; v == v && v >= 0 && v < 1e6 {
			tEta = int(v)
		}
		p := KeywordParams{N: vals[0], Beta: vals[1], Delta: vals[2],
			Gamma: vals[3], I0: vals[4], Eta0: vals[5], TEta: tEta}
		n := 48
		shocks := []Shock{{Keyword: 0, Period: 16, Start: 5, Width: 3,
			Strength: []float64{vals[7], vals[7] / 2, vals[7]}}}
		eps := epsilonOf(shocks, n)
		specs := sensSpecsFor(shocks, true, n)
		np := len(specs)

		want := SimulateInto(nil, &p, n, eps, -1)
		got, jac := SimulateWithSensitivities(nil, nil, &p, n, eps, -1, specs)
		for i := range want {
			if want[i] != got[i] && !(want[i] != want[i] && got[i] != got[i]) {
				t.Fatalf("value drift at tick %d: %x vs %x", i, got[i], want[i])
			}
		}
		// Explosive dynamics (huge β) can legitimately overflow a true
		// sensitivity — ∂i/∂i0 grows like (1+β)^t — so non-finite Jacobian
		// entries are allowed here; the LM layer zeroes them (pinned by
		// TestFitSanitisesNonFiniteJacobian in internal/lm). FD agreement
		// is only meaningful where the Jacobian is finite.
		_ = np
		finite := true
		for _, v := range jac {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
				break
			}
		}
		for _, v := range []float64{p.N, p.Beta, p.Delta, p.Gamma, p.I0, p.Eta0, vals[7]} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
			}
		}
		if finite {
			checkJacobianAgainstFD(t, "fuzz", &p, n, eps, -1, specs)
		}
	})
}

// The kernel runs the canonical {N, β, δ, γ, i0} lane prefix unrolled with
// scalar state and everything else through the generic per-lane loop. Both
// paths must produce the same bits: swapping the first two specs defeats the
// prefix detection, so the same lanes run through the generic loop, and each
// column must match its specialised counterpart exactly.
func TestSensitivitySpecializedMatchesGeneric(t *testing.T) {
	n := 96
	for _, tc := range sensCases() {
		var eps []float64
		if tc.shocks != nil {
			eps = epsilonOf(tc.shocks, n)
		}
		specs := sensSpecsFor(tc.shocks, tc.p.TEta != NoGrowth, n)
		np := len(specs)
		outS, jacS := SimulateWithSensitivities(nil, nil, &tc.p, n, eps, tc.rate, specs)

		perm := append([]SensSpec(nil), specs...)
		perm[0], perm[1] = perm[1], perm[0] // β first: generic path for all lanes
		outG, jacG := SimulateWithSensitivities(nil, nil, &tc.p, n, eps, tc.rate, perm)

		assertBitEqual(t, tc.name+"/out", outS, outG)
		colS := make([]float64, n)
		colG := make([]float64, n)
		for j := 0; j < np; j++ {
			pj := j // column of lane j in the permuted layout
			if j == 0 {
				pj = 1
			} else if j == 1 {
				pj = 0
			}
			for i := 0; i < n; i++ {
				colS[i] = jacS[i*np+j]
				colG[i] = jacG[i*np+pj]
			}
			assertBitEqual(t, tc.name+"/lane", colS, colG)
		}
	}
}

// lateLaneCase is one draw of the late-strength-lane property: parameters
// that are mostly clean but cover every input newKernel sanitises (N = ±0
// among them) and coefficients that overflow, an ε profile that is nil,
// clean or dirty (NaN, ±Inf, 1e308), and 1–40 strength windows opening at
// tick 0, mid-series or at or past the end, mixed into the other lanes in a
// random order.
type lateLaneCase struct {
	N     int
	P     KeywordParams
	Rate  float64
	Eps   []float64
	Specs []SensSpec
}

func (lateLaneCase) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 1 + r.Intn(130)
	inf, nan := math.Inf(1), math.NaN()
	c := lateLaneCase{N: n, Rate: -1, P: KeywordParams{N: 100 * r.Float64(), Beta: r.Float64(),
		Delta: r.Float64(), Gamma: r.Float64(), I0: 0.05 * r.Float64(), TEta: NoGrowth}}
	if r.Intn(3) == 0 {
		c.P.N = pick(r, 0, math.Copysign(0, -1), nan, inf, -r.Float64())
	}
	if r.Intn(4) == 0 {
		c.P.Beta = pick(r, 40*r.Float64(), 1e300, inf, nan)
		c.P.Delta = pick(r, r.Float64(), inf, nan)
		c.P.Gamma = pick(r, r.Float64(), inf, nan)
	}
	if r.Intn(3) == 0 {
		c.P.Eta0, c.P.TEta = pick(r, 0, r.Float64(), inf), r.Intn(n+2)
		c.Rate = pick(r, -1, 0.2*r.Float64(), nan)
	}
	if kind := r.Intn(3); kind > 0 { // 0: nil, 1: clean, 2: dirty
		c.Eps = make([]float64, n)
		for t := range c.Eps {
			c.Eps[t] = 1
			if r.Intn(5) == 0 {
				c.Eps[t] += 20 * r.Float64()
			}
			if kind == 2 && r.Intn(10) == 0 {
				c.Eps[t] = pick(r, nan, inf, -inf, 1e308)
			}
		}
	}
	if r.Intn(2) == 0 {
		c.Specs = append(BaseSensSpecs(), SensSpec{Param: SensEta0})
	}
	for k := 1 + r.Intn(40); k > 0; k-- {
		lo := []int{0, r.Intn(n), n + r.Intn(3)}[r.Intn(3)]
		c.Specs = append(c.Specs, SensSpec{Param: SensStrength, Lo: lo, Hi: min(lo+1+r.Intn(4), n)})
	}
	if r.Intn(2) == 0 {
		r.Shuffle(len(c.Specs), func(i, j int) { c.Specs[i], c.Specs[j] = c.Specs[j], c.Specs[i] })
	}
	return reflect.ValueOf(c)
}

// fullRecurrenceSens is simulateSens before strength lanes skipped their
// ticks ahead of the window: every lane through the generic per-lane loop,
// on every tick.
func fullRecurrenceSens(p *KeywordParams, n int, eps []float64, growthRate float64,
	specs []SensSpec) (out, jac []float64) {
	np := len(specs)
	out, jac = make([]float64, n), make([]float64, n*np)
	dS, dI, dV := make([]float64, np), make([]float64, np), make([]float64, np)
	k := newKernel(p, growthRate)
	N, onePlusEta, gStart := k.N, k.onePlusEta, k.gStart
	s, i, v := k.x0.s, k.x0.i, k.x0.v
	nValid := N == p.N
	i0Valid := i == p.I0
	etaOwn := growthRate < 0
	etaValid := onePlusEta == 1+p.Eta0
	for j, sp := range specs {
		if sp.Param == SensI0 && i0Valid {
			dI[j], dS[j] = 1, -1
		}
	}
	beta, delta, gamma := k.beta, k.delta, k.gamma
	for t := 0; t < n; t++ {
		e, eValid := 1.0, true
		if eps != nil {
			e = eps[t]
			if math.IsNaN(e) || math.IsInf(e, 0) {
				e, eValid = 1, false
			}
		}
		growth := t >= gStart
		out[t] = N * i
		factor := 1.0
		if growth {
			factor = onePlusEta
		}
		infect := beta * s * e * i * factor
		lose := delta * i
		wake := gamma * v
		sc, mS := clampGrad(s - infect + wake)
		ic, mI := clampGrad(i + infect - lose)
		vc, mV := clampGrad(v + lose - wake)
		tot := sc + ic + vc
		sN, iN, vN := sc, ic, vc
		if tot > 0 && tot != 1 {
			sN, iN, vN = sc/tot, ic/tot, vc/tot
		}
		itot := 0.0
		if tot > 0 {
			itot = 1 / tot
		}
		ci := beta * e * factor * i
		cs := beta * e * factor * s
		seiF := s * e * i * factor
		bsiF := beta * s * i * factor
		var etaBonus float64
		if growth && etaOwn && etaValid {
			etaBonus = beta * s * e * i
		}
		for j := 0; j < np; j++ {
			jj := t*np + j
			jac[jj] = N * dI[j]
			dinf := ci*dS[j] + cs*dI[j]
			dlose := delta * dI[j]
			dwake := gamma * dV[j]
			switch sp := &specs[j]; sp.Param {
			case SensN:
				if nValid {
					jac[jj] += i
				}
			case SensBeta:
				dinf += seiF
			case SensDelta:
				dlose += i
			case SensGamma:
				dwake += v
			case SensEta0:
				dinf += etaBonus
			case SensStrength:
				if eValid && t >= sp.Lo && t < sp.Hi {
					dinf += bsiF
				}
			}
			ds1 := (dS[j] - dinf + dwake) * mS
			di1 := (dI[j] + dinf - dlose) * mI
			dv1 := (dV[j] + dlose - dwake) * mV
			if tot > 0 {
				dtot := ds1 + di1 + dv1
				ds1 = (ds1 - sN*dtot) * itot
				di1 = (di1 - iN*dtot) * itot
				dv1 = (dv1 - vN*dtot) * itot
			}
			dS[j], dI[j], dV[j] = ds1, di1, dv1
		}
		s, i, v = sN, iN, vN
	}
	return out, jac
}

// sameBitsUpToNaN is sameBits with every NaN equal to every other: a NaN's
// sign and payload depend on which operand the compiled code puts first, and
// the LM driver zeroes NaN Jacobian entries whatever their bits.
func sameBitsUpToNaN(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return false
		}
	}
	return true
}

// A strength lane skips its recurrence before its window opens while the
// tick's shared coefficients are finite; its Jacobian column must still be
// the full recurrence's bit for bit (±0 told apart, NaNs alike), through
// dirty ε, sanitised inputs and overflowing coefficients.
func TestSensitivityLateStrengthLanesMatchFullRecurrence(t *testing.T) {
	prop := func(c lateLaneCase) bool {
		wantOut, wantJac := fullRecurrenceSens(&c.P, c.N, c.Eps, c.Rate, c.Specs)
		out, jac := SimulateWithSensitivities(nil, nil, &c.P, c.N, c.Eps, c.Rate, c.Specs)
		return sameBitsUpToNaN(out, wantOut) && sameBitsUpToNaN(jac, wantJac)
	}
	cfg := &quick.Config{MaxCount: 1500, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
