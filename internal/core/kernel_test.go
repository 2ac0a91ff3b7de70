package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

const kernelTicks = 96

// kernelCase is one draw of the kernel property: parameters covering every
// input newKernel sanitises, an ε profile that is nil, clean, or holds
// non-finite entries, and the ticks a checkpointed run is cut at.
type kernelCase struct {
	P    KeywordParams
	Rate float64
	Eps  []float64
	Cuts []int // ascending, ending at kernelTicks
}

func pick(r *rand.Rand, vals ...float64) float64 { return vals[r.Intn(len(vals))] }

func (kernelCase) Generate(r *rand.Rand, _ int) reflect.Value {
	const n = kernelTicks
	inf, nan := math.Inf(1), math.NaN()
	onsets := []int{NoGrowth, -2 - r.Intn(5), 0, r.Intn(n), n, n + 1 + r.Intn(50)}
	c := kernelCase{
		P: KeywordParams{
			N:     pick(r, 10*r.Float64(), 0, nan, inf, -inf, -r.Float64()),
			Beta:  pick(r, 2*r.Float64(), 40*r.Float64(), inf),
			Delta: r.Float64(),
			Gamma: r.Float64(),
			I0:    pick(r, 0.1*r.Float64(), r.Float64(), -r.Float64(), 1+r.Float64(), nan),
			Eta0:  pick(r, 0, r.Float64(), inf, -inf, nan),
			TEta:  onsets[r.Intn(len(onsets))],
		},
		Rate: pick(r, -1, 0, 0.2*r.Float64(), inf, -inf, nan),
	}
	if kind := r.Intn(3); kind > 0 { // 0: nil, 1: clean, 2: dirty
		c.Eps = make([]float64, n)
		for t := range c.Eps {
			c.Eps[t] = 1
			if r.Intn(6) == 0 {
				c.Eps[t] += 20 * r.Float64()
			}
			if kind == 2 && r.Intn(10) == 0 {
				c.Eps[t] = pick(r, nan, inf, -inf)
			}
		}
	}
	for k := r.Intn(6); k > 0; k-- {
		c.Cuts = append(c.Cuts, r.Intn(n+1))
	}
	sort.Ints(c.Cuts)
	c.Cuts = append(c.Cuts, n)
	return reflect.ValueOf(c)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The kernel is the one body of the value recurrence: run across random
// cuts, each segment from a copied checkpoint, it must reproduce one
// SimulateInto bit for bit, and so must the values of
// SimulateWithSensitivities, the independent second body that keeps its
// value step inline beside the lanes.
func TestKernelRunMatchesSimulate(t *testing.T) {
	specs := append(BaseSensSpecs(), SensSpec{Param: SensEta0})
	window := func(eps []float64, lo, hi int) []float64 {
		if eps == nil {
			return nil
		}
		return eps[lo:hi]
	}
	prop := func(c kernelCase) bool {
		want := SimulateInto(nil, &c.P, kernelTicks, c.Eps, c.Rate)
		k := newKernel(&c.P, c.Rate)
		got := make([]float64, kernelTicks)
		again := make([]float64, kernelTicks)
		x, at := k.x0, 0
		for _, cut := range c.Cuts {
			ckpt := x
			x = k.run(ckpt, at, window(c.Eps, at, cut), got[at:cut])
			// Re-running the segment from the same checkpoint repeats it:
			// run writes to neither the kernel nor the state it was given.
			if k.run(ckpt, at, window(c.Eps, at, cut), again[at:cut]) != x {
				return false
			}
			at = cut
		}
		vals, _ := SimulateWithSensitivities(nil, nil, &c.P, kernelTicks, c.Eps, c.Rate, specs)
		return sameBits(want, got) && sameBits(want, again) && sameBits(want, vals)
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
