package registry

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dspot/internal/core"
	"dspot/internal/stats"
)

// A served stream's state does not depend on its fit's worker budget: at
// StreamFit Workers 1 and 4 a stream reaches the same StreamState after its
// 104-tick cold fit, after each single-tick append, and after a forced
// refit, the warm ContinueGlobalSequence path.
func TestStreamWorkerCountInvariant(t *testing.T) {
	seq := yearlyEventSeries(130, 3)
	var ref []string
	for _, workers := range []int{1, 4} {
		r, err := Open(Options{StreamFit: core.FitOptions{Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var states []string
		state := func() {
			st, err := r.lookupStream("s")
			if err != nil {
				t.Fatal(err)
			}
			st.mu.Lock()
			states = append(states, fmt.Sprintf("%v", st.s.State()))
			st.mu.Unlock()
		}
		create := AppendOptions{Mode: "incremental", RefitEvery: 1_000_000}
		if _, err := r.AppendStream(ctx, "s", seq[:104], create); err != nil {
			t.Fatal(err)
		}
		state()
		for _, v := range seq[104:] {
			if _, err := r.AppendStream(ctx, "s", []float64{v}, AppendOptions{}); err != nil {
				t.Fatal(err)
			}
			state()
		}
		if _, err := r.RefitStream(ctx, "s"); err != nil {
			t.Fatal(err)
		}
		state()
		if workers == 1 {
			ref = states
			continue
		}
		for i := range states {
			if states[i] != ref[i] {
				t.Fatalf("Workers %d: state %d of %d differs from Workers 1:\n%s\nvs\n%s",
					workers, i, len(states), states[i], ref[i])
			}
		}
	}
}

// yearlyEventSeries is an ingest-like stream: SIV dynamics driven by a
// three-tick yearly event, plus 3% noise.
func yearlyEventSeries(n int, seed int64) []float64 {
	eps := make([]float64, n)
	for t := range eps {
		eps[t] = 1
		if t%52 >= 20 && t%52 < 23 {
			eps[t] += 6
		}
	}
	p := core.KeywordParams{N: 100, Beta: 0.55, Delta: 0.475, Gamma: 0.425, I0: 0.01, TEta: core.NoGrowth}
	seq := core.Simulate(&p, n, eps, -1)
	noise := 0.03 * stats.Max(seq)
	rng := rand.New(rand.NewSource(seed))
	for t := range seq {
		seq[t] = math.Max(seq[t]+noise*rng.NormFloat64(), 0)
	}
	return seq
}
