package epidemic_test

import (
	"context"
	"fmt"

	"dspot/internal/epidemic"
)

// Simulate a classical SIR outbreak: it peaks and dies out.
func ExampleParams_Simulate() {
	p := epidemic.Params{Kind: epidemic.SIR, N: 1000, Beta: 1.2, Delta: 0.3, I0: 0.001}
	out := p.Simulate(300)
	peak, at := 0.0, 0
	for t, v := range out {
		if v > peak {
			peak, at = v, t
		}
	}
	fmt.Printf("peaked=%v diedOut=%v peakAfterStart=%v\n",
		peak > 100, out[299] < peak/100, at > 0)
	// Output:
	// peaked=true diedOut=true peakAfterStart=true
}

// Fit recovers a simulated SIRS epidemic.
func ExampleFit() {
	truth := epidemic.Params{Kind: epidemic.SIRS, N: 300, Beta: 0.9,
		Delta: 0.3, Gamma: 0.04, I0: 0.01}
	obs := truth.Simulate(200)
	fitted, err := epidemic.Fit(context.Background(), epidemic.SIRS, obs)
	if err != nil {
		panic(err)
	}
	fmt.Println("kind:", fitted.Kind)
	// Output:
	// kind: SIRS
}
