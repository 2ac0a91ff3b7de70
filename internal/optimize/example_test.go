package optimize_test

import (
	"context"
	"fmt"

	"dspot/internal/optimize"
)

// Golden-section search over a bounded interval.
func ExampleGolden() {
	f := func(x float64) float64 { return (x - 3) * (x - 3) }
	x, fx, _ := optimize.Golden(context.Background(), f, 0, 10, 1e-9, 0)
	fmt.Printf("argmin=%.3f min=%.3f\n", x, fx)
	// Output:
	// argmin=3.000 min=0.000
}

// Nelder–Mead on the Rosenbrock function.
func ExampleNelderMead() {
	rosen := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x, _ := optimize.NelderMead(rosen, []float64{-1.2, 1},
		optimize.NelderMeadOptions{MaxIter: 5000, Tol: 1e-14})
	fmt.Printf("(%.2f, %.2f)\n", x[0], x[1])
	// Output:
	// (1.00, 1.00)
}

// Coarse-then-exact integer search.
func ExampleRefiningGrid() {
	f := func(c int) float64 { return float64((c - 457) * (c - 457)) }
	best, _, _ := optimize.RefiningGrid(context.Background(), f, 0, 1000, 20)
	fmt.Println(best)
	// Output:
	// 457
}
