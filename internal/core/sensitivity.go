package core

import "math"

// Analytic forward-mode sensitivities of the SIV difference system. The
// per-tick recurrence in SimulateInto is smooth almost everywhere in the
// parameters, so ∂(s,i,v)/∂θ can be propagated alongside the state in one
// pass — one augmented simulation replaces the p+1 full re-simulations per
// Levenberg–Marquardt iteration that forward finite differences cost. The
// FD path stays available (lm.Options without a Jacobian, or
// FitOptions.FDJacobian) as the cross-check oracle; the agreement suite in
// sensitivity_test.go pins the two against each other.
//
// Subgradient conventions at the non-smooth points (documented in DESIGN.md
// §11 and pinned by TestSensitivitySubgradientConventions):
//
//   - clamp01: derivative 1 where the input passes through unchanged
//     (0 ≤ x ≤ 1), 0 where the clamp is active (x < 0, x > 1, or NaN).
//   - renormalisation: the value path skips the division when s+i+v == 1
//     exactly (x/1.0 is bit-exact), but the derivative path always applies
//     the quotient rule when the total is positive — the renormalised map is
//     what finite differences observe at neighbouring parameters, so the
//     quotient rule is the convention that keeps FD and analytic consistent
//     across the measure-zero tot == 1 branch.
//   - input sanitisation (non-finite or negative N, non-finite η₀ or ε(t)
//     replaced by safe constants): derivative 0 — the replacement is locally
//     constant.

// SensParam identifies which input of the SIV simulation a sensitivity lane
// differentiates with respect to.
type SensParam int

const (
	// SensN differentiates with respect to the population scale N.
	SensN SensParam = iota
	// SensBeta differentiates with respect to the contact rate β.
	SensBeta
	// SensDelta differentiates with respect to the interest-loss rate δ.
	SensDelta
	// SensGamma differentiates with respect to the immunisation-loss rate γ.
	SensGamma
	// SensI0 differentiates with respect to the initial infective fraction.
	SensI0
	// SensEta0 differentiates with respect to the growth magnitude η₀. The
	// lane is identically zero when a growthRate override is in effect (the
	// keyword's own η₀ is then unused).
	SensEta0
	// SensStrength differentiates with respect to one shock-occurrence
	// strength: ∂ε(t)/∂θ = 1 on the occurrence window [Lo, Hi) and 0
	// elsewhere (the profile ε(t) = 1 + Σ strengths is linear in each
	// strength, see epsilonInto).
	SensStrength
)

// SensSpec selects one differentiated parameter of a sensitivity run. Lo/Hi
// are only meaningful for SensStrength: the half-open tick window the
// strength is added to (already clipped to [0, n)).
type SensSpec struct {
	Param  SensParam
	Lo, Hi int
}

// StrengthSpec builds the SensSpec of occurrence m of shock s in an n-tick
// window — exactly the ticks epsilonInto adds Strength[m] to.
func StrengthSpec(s *Shock, m, n int) SensSpec {
	lo := s.OccurrenceStart(m)
	hi := lo + s.Width
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if hi < lo {
		hi = lo
	}
	return SensSpec{Param: SensStrength, Lo: lo, Hi: hi}
}

// BaseSensSpecs is the lane layout of the base-parameter fits: {N, β, δ, γ,
// i0}, matching the parameter order every LM base objective uses.
func BaseSensSpecs() []SensSpec {
	return []SensSpec{{Param: SensN}, {Param: SensBeta}, {Param: SensDelta},
		{Param: SensGamma}, {Param: SensI0}}
}

// SimulateWithSensitivities runs the SIV simulation and simultaneously
// propagates the forward-mode sensitivities ∂out[t]/∂θ for each requested
// parameter. The simulated values are bit-identical to SimulateInto over the
// same inputs (pinned by TestSensitivityValuesMatchSimulate); the Jacobian
// is returned row-major with jac[t*len(specs)+j] = ∂out[t]/∂θ_j.
//
// dst and jacDst are reused when their capacity suffices (n and
// n*len(specs) respectively), matching the SimulateInto buffer contract.
// One call allocates a small lane-state scratch; the fitters hold a
// reusable scratch and go through simulateSens directly.
func SimulateWithSensitivities(dst, jacDst []float64, p *KeywordParams, n int,
	eps []float64, growthRate float64, specs []SensSpec) (out, jac []float64) {
	scratch := make([]float64, 3*len(specs))
	return simulateSens(dst, jacDst, scratch, p, n, eps, growthRate, specs)
}

// simulateSens is SimulateWithSensitivities with a caller-owned lane-state
// scratch (capacity ≥ 3*len(specs)), so per-iteration Jacobian evaluations
// inside LM allocate nothing.
//
// The kernel special-cases the {N, β, δ, γ, i0} lane prefix that every base
// and candidate fit uses (BaseSensSpecs order): those five lanes run
// unrolled with their state in scalars, and only the remaining lanes (η₀,
// strengths) go through the generic per-lane loop. The unrolled blocks
// repeat the generic loop's statements verbatim, so both paths produce
// bit-identical Jacobians (pinned by TestSensitivitySpecializedMatchesGeneric,
// which permutes the prefix to force the generic path).
func simulateSens(dst, jacDst, scratch []float64, p *KeywordParams, n int,
	eps []float64, growthRate float64, specs []SensSpec) (out, jac []float64) {
	np := len(specs)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	out = dst[:n]
	if cap(jacDst) < n*np {
		jacDst = make([]float64, n*np)
	}
	jac = jacDst[:n*np]
	if cap(scratch) < 3*np {
		scratch = make([]float64, 3*np)
	}
	dS := scratch[0:np]
	dI := scratch[np : 2*np]
	dV := scratch[2*np : 3*np]

	// The inputs come sanitised from newKernel, the one sanitiser; the
	// *Valid flags record whether it passed a parameter through unchanged
	// (subgradient 1) or replaced it (subgradient 0). A replaced N or I0
	// differs from the raw value, and a replaced η₀ leaves a growth factor
	// other than 1+η₀.
	k := newKernel(p, growthRate)
	N, onePlusEta, gStart := k.N, k.onePlusEta, k.gStart
	s, i, v := k.x0.s, k.x0.i, k.x0.v
	nValid := N == p.N
	i0Valid := i == p.I0
	etaOwn := growthRate < 0 // η₀ lane live only when p's own rate is in use
	etaValid := onePlusEta == 1+p.Eta0

	// Lane initial state: only the i0 lane starts non-zero.
	for j := range dS {
		dS[j], dI[j], dV[j] = 0, 0, 0
	}
	for j, sp := range specs {
		if sp.Param == SensI0 && i0Valid {
			dI[j] = 1
			dS[j] = -1
		}
	}

	// Base-prefix specialisation: lanes [0,tail) are the canonical
	// {N, β, δ, γ, i0} and run unrolled below with scalar state.
	tail := 0
	if np >= 5 && specs[0].Param == SensN && specs[1].Param == SensBeta &&
		specs[2].Param == SensDelta && specs[3].Param == SensGamma &&
		specs[4].Param == SensI0 {
		tail = 5
	}
	var dS0, dI0, dV0, dS1, dI1, dV1, dS2, dI2, dV2 float64
	var dS3, dI3, dV3, dS4, dI4, dV4 float64
	if tail == 5 {
		dS4, dI4 = dS[4], dI[4]
	}
	beta, delta, gamma := k.beta, k.delta, k.gamma

	for t := 0; t < n; t++ {
		e := 1.0
		eValid := true // ε(t) passed through unsanitised (strength lanes live)
		if eps != nil {
			e = eps[t]
			if math.IsNaN(e) || math.IsInf(e, 0) {
				e = 1
				eValid = false
			}
		}
		growth := t >= gStart

		out[t] = N * i

		// Value step — the kernel's, kept inline because the lanes below
		// need the pre-clamp values s1, i1, v1. It multiplies by the
		// growth factor on every tick, where run skips the ×1.0 before the
		// onset; the bits are the same.
		factor := 1.0
		if growth {
			factor = onePlusEta
		}
		infect := beta * s * e * i * factor
		lose := delta * i
		wake := gamma * v
		s1 := s - infect + wake
		i1 := i + infect - lose
		v1 := v + lose - wake
		sc, mS := clampGrad(s1)
		ic, mI := clampGrad(i1)
		vc, mV := clampGrad(v1)
		tot := sc + ic + vc
		sN, iN, vN := sc, ic, vc
		if tot > 0 && tot != 1 {
			sN, iN, vN = sc/tot, ic/tot, vc/tot
		}

		// Shared per-tick coefficients of the lane recurrence:
		//   ∂infect = ci·∂s + cs·∂i + (lane-specific bonus)
		// itot hoists the renormalisation division out of the lane loop;
		// only the value path owes bit-exactness, the derivative path may
		// multiply by the reciprocal.
		itot := 0.0
		if tot > 0 {
			itot = 1 / tot
		}
		ci := beta * e * factor * i
		cs := beta * e * factor * s
		seiF := s * e * i * factor // ∂infect/∂β
		bsiF := beta * s * i * factor
		var etaBonus float64
		if growth && etaOwn && etaValid {
			etaBonus = beta * s * e * i // ∂infect/∂η₀ = β·s·ε·i
		}
		row := t * np

		// Unrolled {N, β, δ, γ, i0} prefix — each block repeats the generic
		// loop's statements with the lane state held in scalars.
		if tail == 5 {
			{ // N lane
				d := N * dI0
				if nValid {
					d += i
				}
				jac[row] = d
				dinf := ci*dS0 + cs*dI0
				dlose := delta * dI0
				dwake := gamma * dV0
				ds1 := dS0 - dinf + dwake
				di1 := dI0 + dinf - dlose
				dv1 := dV0 + dlose - dwake
				ds1 *= mS
				di1 *= mI
				dv1 *= mV
				if tot > 0 {
					dtot := ds1 + di1 + dv1
					ds1 = (ds1 - sN*dtot) * itot
					di1 = (di1 - iN*dtot) * itot
					dv1 = (dv1 - vN*dtot) * itot
				}
				dS0, dI0, dV0 = ds1, di1, dv1
			}
			{ // β lane
				jac[row+1] = N * dI1
				dinf := ci*dS1 + cs*dI1
				dinf += seiF
				dlose := delta * dI1
				dwake := gamma * dV1
				ds1 := dS1 - dinf + dwake
				di1 := dI1 + dinf - dlose
				dv1 := dV1 + dlose - dwake
				ds1 *= mS
				di1 *= mI
				dv1 *= mV
				if tot > 0 {
					dtot := ds1 + di1 + dv1
					ds1 = (ds1 - sN*dtot) * itot
					di1 = (di1 - iN*dtot) * itot
					dv1 = (dv1 - vN*dtot) * itot
				}
				dS1, dI1, dV1 = ds1, di1, dv1
			}
			{ // δ lane
				jac[row+2] = N * dI2
				dinf := ci*dS2 + cs*dI2
				dlose := delta * dI2
				dlose += i
				dwake := gamma * dV2
				ds1 := dS2 - dinf + dwake
				di1 := dI2 + dinf - dlose
				dv1 := dV2 + dlose - dwake
				ds1 *= mS
				di1 *= mI
				dv1 *= mV
				if tot > 0 {
					dtot := ds1 + di1 + dv1
					ds1 = (ds1 - sN*dtot) * itot
					di1 = (di1 - iN*dtot) * itot
					dv1 = (dv1 - vN*dtot) * itot
				}
				dS2, dI2, dV2 = ds1, di1, dv1
			}
			{ // γ lane
				jac[row+3] = N * dI3
				dinf := ci*dS3 + cs*dI3
				dlose := delta * dI3
				dwake := gamma * dV3
				dwake += v
				ds1 := dS3 - dinf + dwake
				di1 := dI3 + dinf - dlose
				dv1 := dV3 + dlose - dwake
				ds1 *= mS
				di1 *= mI
				dv1 *= mV
				if tot > 0 {
					dtot := ds1 + di1 + dv1
					ds1 = (ds1 - sN*dtot) * itot
					di1 = (di1 - iN*dtot) * itot
					dv1 = (dv1 - vN*dtot) * itot
				}
				dS3, dI3, dV3 = ds1, di1, dv1
			}
			{ // i0 lane
				jac[row+4] = N * dI4
				dinf := ci*dS4 + cs*dI4
				dlose := delta * dI4
				dwake := gamma * dV4
				ds1 := dS4 - dinf + dwake
				di1 := dI4 + dinf - dlose
				dv1 := dV4 + dlose - dwake
				ds1 *= mS
				di1 *= mI
				dv1 *= mV
				if tot > 0 {
					dtot := ds1 + di1 + dv1
					ds1 = (ds1 - sN*dtot) * itot
					di1 = (di1 - iN*dtot) * itot
					dv1 = (dv1 - vN*dtot) * itot
				}
				dS4, dI4, dV4 = ds1, di1, dv1
			}
		}

		for j := tail; j < np; j++ {
			// ∂out[t]/∂θ_j = N·∂i/∂θ_j with the lane state *entering* the
			// tick (out[t] was computed from that same state above), plus
			// the direct i(t) term on the N lane.
			jj := row + j
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
			ds1 := dS[j] - dinf + dwake
			di1 := dI[j] + dinf - dlose
			dv1 := dV[j] + dlose - dwake
			ds1 *= mS
			di1 *= mI
			dv1 *= mV
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

	if tail == 5 {
		dS[0], dI[0], dV[0] = dS0, dI0, dV0
		dS[1], dI[1], dV[1] = dS1, dI1, dV1
		dS[2], dI[2], dV[2] = dS2, dI2, dV2
		dS[3], dI[3], dV[3] = dS3, dI3, dV3
		dS[4], dI[4], dV[4] = dS4, dI4, dV4
	}
	return out, jac
}

// clampGrad is clamp01 returning the value and the subgradient (1 where the
// input passes through unchanged, 0 where the clamp is active).
func clampGrad(x float64) (float64, float64) {
	if x < 0 || math.IsNaN(x) {
		return 0, 0
	}
	if x > 1 {
		return 1, 0
	}
	return x, 1
}
