// Package core implements Δ-SPOT, the paper's primary contribution: a
// non-linear SIV (Susceptible–Infective–Vigilant) model of online user
// activity with population growth effects and cyclic external shocks, an
// MDL-gated multi-layer fitting algorithm (GlobalFit + LocalFit), and a
// long-range forecaster.
//
// The observable for keyword i in location j is the infective count
// N_ij·i(t), where the fractions (s, i, v) evolve as
//
//	s(t+1) = s(t) − β·s(t)·ε(t)·i(t)·(1+η(t)) + γ·v(t)
//	i(t+1) = i(t) + β·s(t)·ε(t)·i(t)·(1+η(t)) − δ·i(t)
//	v(t+1) = v(t) + δ·i(t) − γ·v(t)
//
// with ε(t) the temporal susceptible rate assembled from the external shock
// tensor S and η(t) the growth step that switches from 0 to η₀ at t_η.
package core

import (
	"fmt"
	"math"
)

// NonCyclic is the Period value of a one-off shock (t_p = ∞ in the paper).
const NonCyclic = 0

// Shock is one external shock event s = {s^(D), s^(N), s^(L)}.
type Shock struct {
	Keyword int // s^(D): which keyword the shock applies to
	Period  int // t_p; NonCyclic (0) for a one-off event
	Start   int // t_s: first tick of the first occurrence
	Width   int // t_w: duration of each occurrence, >= 1

	// Strength holds the global shock strength ε₀ of each occurrence, one
	// entry per occurrence inside the training window (a single entry for a
	// non-cyclic shock).
	Strength []float64

	// Local is the s^(L) matrix: per-occurrence, per-location strengths.
	// nil until LocalFit runs. A zero entry means the location does not
	// participate in that occurrence (the matrix is semantically sparse and
	// the MDL cost charges only non-zero entries).
	Local [][]float64
}

// Occurrences returns the number of occurrences of the shock inside a
// window of n ticks.
func (s *Shock) Occurrences(n int) int {
	if s.Start >= n || s.Width <= 0 {
		return 0
	}
	if s.Period <= 0 {
		return 1
	}
	return (n-1-s.Start)/s.Period + 1
}

// OccurrenceStart returns the starting tick of occurrence m (m >= 0).
func (s *Shock) OccurrenceStart(m int) int {
	if s.Period <= 0 {
		return s.Start
	}
	return s.Start + m*s.Period
}

// OccurrenceAt returns the occurrence index covering tick t, or -1.
func (s *Shock) OccurrenceAt(t int) int {
	if t < s.Start || s.Width <= 0 {
		return -1
	}
	if s.Period <= 0 {
		if t < s.Start+s.Width {
			return 0
		}
		return -1
	}
	m := (t - s.Start) / s.Period
	if t < s.Start+m*s.Period+s.Width {
		return m
	}
	return -1
}

// MeanStrength returns the mean of the occurrence strengths (0 if none).
func (s *Shock) MeanStrength() float64 {
	if len(s.Strength) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Strength {
		sum += v
	}
	return sum / float64(len(s.Strength))
}

// Validate checks structural invariants of the shock against a window of n
// ticks and l locations (l <= 0 skips the Local checks).
func (s *Shock) Validate(n, l int) error {
	if s.Width < 1 {
		return fmt.Errorf("core: shock width %d < 1", s.Width)
	}
	if s.Start < 0 || s.Start >= n {
		return fmt.Errorf("core: shock start %d outside [0,%d)", s.Start, n)
	}
	if s.Period < 0 {
		return fmt.Errorf("core: negative shock period %d", s.Period)
	}
	if s.Period > 0 && s.Width > s.Period {
		return fmt.Errorf("core: shock width %d exceeds period %d", s.Width, s.Period)
	}
	if occ := s.Occurrences(n); len(s.Strength) != occ {
		return fmt.Errorf("core: %d strengths for %d occurrences", len(s.Strength), occ)
	}
	for m, v := range s.Strength {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: bad strength %g at occurrence %d", v, m)
		}
	}
	if s.Local != nil {
		if len(s.Local) != len(s.Strength) {
			return fmt.Errorf("core: local matrix has %d rows for %d occurrences",
				len(s.Local), len(s.Strength))
		}
		if l > 0 {
			for m, row := range s.Local {
				if len(row) != l {
					return fmt.Errorf("core: local row %d has %d entries for %d locations",
						m, len(row), l)
				}
			}
		}
	}
	return nil
}

// KeywordParams are the global-level parameters of one keyword: the B_G row
// {N, β, δ, γ} (plus the initial infective fraction, which the paper folds
// into model initialisation) and the R_G row {η₀, t_η}.
type KeywordParams struct {
	N     float64 // potential population (output scale)
	Beta  float64 // effective contact rate
	Delta float64 // interest-loss rate
	Gamma float64 // immunisation-loss rate
	I0    float64 // initial infective fraction

	Eta0 float64 // growth-effect magnitude η₀ (0 when no growth effect)
	TEta int     // growth onset t_η; NoGrowth when absent
}

// NoGrowth is the TEta value of a keyword without a population growth effect.
const NoGrowth = -1

// HasGrowth reports whether the growth effect is active.
func (p *KeywordParams) HasGrowth() bool { return p.TEta != NoGrowth && p.Eta0 > 0 }

// Model is the complete set F = {B_G, B_L, R_G, R_L, S} fitted to a tensor.
type Model struct {
	Keywords  []string
	Locations []string
	Ticks     int // training duration n

	Global []KeywordParams // B_G and R_G rows, one per keyword
	LocalN [][]float64     // B_L: potential population per (keyword, location)
	LocalR [][]float64     // R_L: growth rate per (keyword, location)
	Shocks []Shock         // the external shock tensor S

	// Scale records the per-keyword normalisation applied during fitting
	// (global sequences are fitted on [0,1] data); it is already folded into
	// N and LocalN and retained for diagnostics only.
	Scale []float64
}

// Validate checks the model's structural invariants: axis/parameter
// agreement, finite parameters, well-formed shocks with in-range keyword
// references, and local matrices (when present) shaped d×l. It returns a
// descriptive error for the first violation.
func (m *Model) Validate() error {
	d, l := len(m.Keywords), len(m.Locations)
	if d == 0 {
		return fmt.Errorf("core: model has no keywords")
	}
	if m.Ticks <= 0 {
		return fmt.Errorf("core: non-positive duration %d", m.Ticks)
	}
	if len(m.Global) != d {
		return fmt.Errorf("core: %d keyword params for %d keywords", len(m.Global), d)
	}
	for i, p := range m.Global {
		for name, v := range map[string]float64{
			"N": p.N, "beta": p.Beta, "delta": p.Delta, "gamma": p.Gamma,
			"i0": p.I0, "eta0": p.Eta0,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("core: keyword %d: bad %s %g", i, name, v)
			}
		}
		if p.TEta != NoGrowth && (p.TEta < 0 || p.TEta >= m.Ticks) {
			return fmt.Errorf("core: keyword %d: growth onset %d outside window", i, p.TEta)
		}
	}
	checkMatrix := func(name string, mat [][]float64) error {
		if mat == nil {
			return nil
		}
		if len(mat) != d {
			return fmt.Errorf("core: %s has %d rows for %d keywords", name, len(mat), d)
		}
		for i, row := range mat {
			if len(row) != l {
				return fmt.Errorf("core: %s row %d has %d entries for %d locations",
					name, i, len(row), l)
			}
			for j, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return fmt.Errorf("core: %s[%d][%d] = %g", name, i, j, v)
				}
			}
		}
		return nil
	}
	if err := checkMatrix("B_L", m.LocalN); err != nil {
		return err
	}
	if err := checkMatrix("R_L", m.LocalR); err != nil {
		return err
	}
	for si := range m.Shocks {
		s := &m.Shocks[si]
		if s.Keyword < 0 || s.Keyword >= d {
			return fmt.Errorf("core: shock %d references keyword %d of %d", si, s.Keyword, d)
		}
		if err := s.Validate(m.Ticks, l); err != nil {
			return fmt.Errorf("core: shock %d: %w", si, err)
		}
	}
	return nil
}

// KeywordIndex returns the index of the first keyword named name and
// whether it exists. Keyword axes should not contain duplicates, but when
// they do the first occurrence wins — every lookup in the codebase goes
// through here so the choice is consistent.
func (m *Model) KeywordIndex(name string) (int, bool) {
	for i, kw := range m.Keywords {
		if kw == name {
			return i, true
		}
	}
	return -1, false
}

// ShocksFor returns the shocks attached to keyword i, in discovery order.
func (m *Model) ShocksFor(i int) []Shock {
	var out []Shock
	for _, s := range m.Shocks {
		if s.Keyword == i {
			out = append(out, s)
		}
	}
	return out
}

// EpsilonGlobal builds the temporal susceptible rate ε(t) for keyword i over
// n ticks from the global occurrence strengths: ε(t) = 1 + Σ_s f(t; s). An
// occurrence past the end of its strength row adds nothing.
func (m *Model) EpsilonGlobal(i, n int) []float64 {
	return epsilonInto(make([]float64, n), 0, m.ShocksFor(i), false, nil)
}

// EpsilonLocal builds ε_ij(t) for keyword i in location j from column j of
// each shock's Local matrix. Only a shock with no Local matrix falls back to
// its global strengths; a location past the end of a Local row reads 0.
func (m *Model) EpsilonLocal(i, j, n int) []float64 {
	shocks, _, _ := m.keywordAt(i, j)
	return epsilonInto(make([]float64, n), 0, shocks, false, nil)
}

// Simulate runs the SIV difference system for n ticks with the given
// susceptible-rate profile eps (nil means ε≡1) and returns the infective
// counts N·i(t). growthRate overrides the keyword's η₀ when >= 0 (used by
// the local model, where R_L replaces the global rate); pass -1 to use p's
// own rate. Fractions are clamped and renormalised each step so that any
// explored parameter vector yields finite output.
func Simulate(p *KeywordParams, n int, eps []float64, growthRate float64) []float64 {
	return SimulateInto(nil, p, n, eps, growthRate)
}

// SimulateInto is Simulate writing into a caller-provided buffer: when dst
// has capacity for n ticks it is reused (and the returned slice aliases it),
// otherwise a fresh slice is allocated. The computed values are identical to
// Simulate's — the fitters lean on that to reuse scratch buffers in their
// objective closures without perturbing results.
func SimulateInto(dst []float64, p *KeywordParams, n int, eps []float64, growthRate float64) []float64 {
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	out := dst[:n]
	k := newKernel(p, growthRate)
	k.run(k.x0, 0, eps, out)
	return out
}

// SimulateGlobal returns the fitted global curve Î(t) for keyword i over n
// ticks (n may exceed the training window; ε is extended by Epsilon* which
// only covers known occurrences — use Forecast for proper extrapolation).
func (m *Model) SimulateGlobal(i, n int) []float64 {
	return Simulate(&m.Global[i], n, m.EpsilonGlobal(i, n), -1)
}

// SimulateLocal returns the fitted local curve for keyword i in location j.
func (m *Model) SimulateLocal(i, j, n int) []float64 {
	shocks, p, rate := m.keywordAt(i, j)
	return Simulate(&p, n, epsilonInto(make([]float64, n), 0, shocks, false, nil), rate)
}

func clamp01(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
