package engine

import (
	"context"
	"fmt"

	"dspot/internal/funnel"
	"dspot/internal/mdl"
	"dspot/internal/numcheck"
)

// The FUNNEL engine holds one fit per keyword over the global sequences,
// plus per-location scales (the family's spatial treatment) when the fit was
// not GlobalOnly.
func init() {
	Register(&keywordEngine[funnel.Params]{
		name: "funnel",
		fit: func(ctx context.Context, seq []float64, opts FitOptions) (funnel.Params, error) {
			return funnel.Fit(seq, funnel.Options{MaxShocks: opts.MaxShocks, Context: ctx})
		},
		simulate: func(p funnel.Params, n int, _ []float64) []float64 {
			return p.Simulate(n)
		},
		// Forecast continues the seasonal dynamics; one-shot shocks lie
		// inside the training window and do not recur.
		forecast: func(p funnel.Params, ticks, horizon int, _ []float64) []float64 {
			return p.Simulate(ticks + horizon)[ticks:]
		},
		descCost: funnelDescCost,
		check: func(i int, p funnel.Params) error {
			for _, v := range []float64{p.N, p.Beta, p.Delta, p.Gamma, p.I0, p.Amp, p.Phase} {
				if err := numcheck.Finite(fmt.Sprintf("funnel params[%d]", i), v); err != nil {
					return err
				}
			}
			for _, s := range p.Shocks {
				if s.Start < 0 || s.Width < 1 {
					return fmt.Errorf("funnel model: keyword %d has shock at %d width %d",
						i, s.Start, s.Width)
				}
			}
			return nil
		},
		// Events are the one-shot shocks (FUNNEL has no cyclic events).
		events: func(keyword string, p funnel.Params) []Event {
			var out []Event
			for _, s := range p.Shocks {
				out = append(out, Event{
					Keyword: keyword, Start: s.Start, Width: s.Width,
					Strength: []float64{s.Strength},
				})
			}
			return out
		},
		fitLocal: funnel.FitLocal,
	})
}

// funnelDescCost prices one keyword's parameters: the base floats, a
// seasonality indicator bit (amp/phase floats plus the period integer when
// present), and the shock list.
func funnelDescCost(p funnel.Params, n int) float64 {
	c := mdl.FloatsCost(5) + 1 // base params + "has seasonality?" bit
	if p.Period > 0 {
		c += mdl.FloatsCost(2) + mdl.IntCost(n)
	}
	c += mdl.LogStar(len(p.Shocks))
	c += float64(len(p.Shocks)) * (2*mdl.IntCost(n) + mdl.FloatCost)
	return c
}
