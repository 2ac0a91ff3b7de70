package core

// Decomposition: users asking "why does the fit look like this?" need the
// model's explanation split into its mechanisms. Decompose re-simulates the
// keyword with components switched off and reports the marginal
// contribution of each: base dynamics, the growth effect, and each shock's
// incremental lift. Contributions are defined counterfactually (curve with
// the component minus curve without it, all else equal), so they sum to the
// full fitted curve exactly.

// Components is the decomposition of one keyword's fitted curve.
type Components struct {
	Fitted []float64 // the full fitted curve Î(t)
	Base   []float64 // base SIV dynamics alone (no growth, no shocks)
	Growth []float64 // marginal lift from the growth effect
	Shocks []float64 // marginal lift from all external shocks together

	// PerShock holds each shock's marginal lift, ordered as ShocksFor(i).
	PerShock [][]float64
}

// Decompose splits keyword i's fitted curve into explanatory components
// over n ticks.
func (m *Model) Decompose(i, n int) Components {
	shocks := m.ShocksFor(i)
	eps := make([]float64, n)
	simWith := func(withGrowth bool, shockSubset []Shock) []float64 {
		p := m.Global[i]
		if !withGrowth {
			p.Eta0, p.TEta = 0, NoGrowth
		}
		return Simulate(&p, n, epsilonInto(eps, 0, shockSubset, false, nil), -1)
	}

	c := Components{
		Fitted: simWith(true, shocks),
		Base:   simWith(false, nil),
	}
	// Growth lift: with growth minus without, both shock-free.
	withGrowthNoShocks := simWith(true, nil)
	c.Growth = diff(withGrowthNoShocks, c.Base)
	// Total shock lift: full minus growth-only.
	c.Shocks = diff(c.Fitted, withGrowthNoShocks)
	// Per-shock marginal lift: full minus full-without-that-shock.
	c.PerShock = make([][]float64, len(shocks))
	for k := range shocks {
		subset := make([]Shock, 0, len(shocks)-1)
		subset = append(subset, shocks[:k]...)
		subset = append(subset, shocks[k+1:]...)
		c.PerShock[k] = diff(c.Fitted, simWith(true, subset))
	}
	return c
}

func diff(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for t := range a {
		out[t] = a[t] - b[t]
	}
	return out
}
