package engine

import (
	"context"
	"fmt"

	"dspot/internal/hip"
	"dspot/internal/mdl"
	"dspot/internal/numcheck"
)

// The HIP engine holds one Hawkes-intensity fit per keyword over the global
// sequences, plus the promotion series the fit conditioned on (exogenous
// input — stored so simulation and forecasting replay the same drive, but
// never priced by MDL).
func init() {
	Register(&keywordEngine[hip.Params]{
		name: "hip",
		fit: func(ctx context.Context, seq []float64, opts FitOptions) (hip.Params, error) {
			return hip.Fit(seq, hip.Options{Context: ctx, Promotion: opts.Promotion})
		},
		simulate: func(p hip.Params, n int, promo []float64) []float64 {
			return p.Simulate(n, promo)
		},
		forecast: func(p hip.Params, ticks, horizon int, promo []float64) []float64 {
			return p.Forecast(ticks, horizon, promo)
		},
		descCost: func(hip.Params, int) float64 { return mdl.FloatsCost(hip.ParamCount) },
		check: func(i int, p hip.Params) error {
			for _, v := range []float64{p.Mu, p.C, p.Theta, p.Cutoff} {
				if err := numcheck.Value(fmt.Sprintf("hip params[%d]", i), v); err != nil {
					return err
				}
			}
			return nil
		},
		keepsPromotion: true,
	})
}
