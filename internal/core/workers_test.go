package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dspot/internal/core"
	"dspot/internal/datagen"
	"dspot/internal/tensor"
)

// The worker budget decides how many goroutines fit at once, never what
// they fit: FitGlobal and FitLocal at Workers 1, 2, 3 and 8 give the same
// model, bit for bit, and the same FitReport counts, on tensors from each
// scripted generator. The cases span the budget's regimes: one keyword,
// whose fit may take every slot for its LM starts; fewer keywords than
// slots, which share the slots the keyword workers leave free; and more
// keywords than slots at Workers 2, where the keyword workers hold them
// all.
func TestFitWorkerCountInvariant(t *testing.T) {
	cases := []struct {
		gen      string
		keywords int
		ticks    int
		seed     int64
	}{
		{"googletrends", 1, 48, 1},
		{"twitter", 2, 104, 2},
		{"memetracker", 3, 156, 3},
		{"googletrends", 2, 312, 4},
		{"twitter", 1, 312, 5},
		{"memetracker", 1, 88, 6},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/%dkw/%dticks/seed%d", tc.gen, tc.keywords, tc.ticks, tc.seed)
		t.Run(name, func(t *testing.T) {
			x := generatedWorld(tc.gen, tc.keywords, tc.ticks, tc.seed)
			var refModel []uint64
			var refCounts fitCounts
			for _, workers := range []int{1, 2, 3, 8} {
				m, rep, err := core.FitWithReport(x, core.FitOptions{Workers: workers})
				if err != nil {
					t.Fatalf("Workers %d: %v", workers, err)
				}
				bits, counts := modelBits(m), countsOf(rep)
				if workers == 1 {
					refModel, refCounts = bits, counts
					continue
				}
				if len(bits) != len(refModel) {
					t.Fatalf("Workers %d: model has %d floats, %d at Workers 1", workers, len(bits), len(refModel))
				}
				for i := range bits {
					if bits[i] != refModel[i] {
						t.Fatalf("Workers %d: model float %d is %v, %v at Workers 1", workers, i,
							math.Float64frombits(bits[i]), math.Float64frombits(refModel[i]))
					}
				}
				if !reflect.DeepEqual(counts, refCounts) {
					t.Fatalf("Workers %d: report counts %+v, %+v at Workers 1", workers, counts, refCounts)
				}
			}
		})
	}
}

// generatedWorld draws keywords of the named generator's world at the
// given length and seed, over two locations.
func generatedWorld(gen string, keywords, ticks int, seed int64) *tensor.Tensor {
	cfg := datagen.Config{Locations: 2, Ticks: ticks, Seed: seed}
	var world *tensor.Tensor
	switch gen {
	case "googletrends":
		world = datagen.GoogleTrends(cfg).Tensor
	case "twitter":
		world = datagen.Twitter(4, cfg).Tensor
	default:
		world = datagen.MemeTracker(4, cfg).Tensor
	}
	kws := rand.New(rand.NewSource(seed)).Perm(world.D())[:keywords]
	names := make([]string, keywords)
	for i, k := range kws {
		names[i] = world.Keywords[k]
	}
	x := tensor.New(names, world.Locations, world.N())
	for i, k := range kws {
		for j := range world.Locations {
			for tick := 0; tick < world.N(); tick++ {
				x.Set(i, j, tick, world.At(k, j, tick))
			}
		}
	}
	return x
}

// modelBits flattens every number of a fitted model, the structure's
// integers included, into float bits.
func modelBits(m *core.Model) []uint64 {
	var fs []float64
	for _, p := range m.Global {
		fs = append(fs, p.N, p.Beta, p.Delta, p.Gamma, p.I0, p.Eta0, float64(p.TEta))
	}
	fs = append(fs, m.Scale...)
	for _, s := range m.Shocks {
		fs = append(fs, float64(s.Keyword), float64(s.Period), float64(s.Start), float64(s.Width),
			float64(len(s.Strength)))
		fs = append(fs, s.Strength...)
		for _, row := range s.Local {
			fs = append(fs, row...)
		}
	}
	for _, rows := range [][][]float64{m.LocalN, m.LocalR} {
		for _, row := range rows {
			fs = append(fs, row...)
		}
	}
	bits := make([]uint64, len(fs))
	for i, f := range fs {
		bits[i] = math.Float64bits(f)
	}
	return bits
}

// fitCounts are the FitReport's work counts, which the worker count must
// not move either.
type fitCounts struct {
	LMIterations, LMStalls           int
	StageLMIterations, StageLMStalls map[string]int
	ShocksTried, ShocksAccepted      int
	GrowthTried, GrowthAccepted      int
	PerKeyword                       []core.KeywordFitStats
}

func countsOf(r *core.FitReport) fitCounts {
	per := append([]core.KeywordFitStats(nil), r.PerKeyword...)
	for i := range per {
		per[i].Duration = 0 // wall-clock, the one thing allowed to differ
	}
	return fitCounts{r.LMIterations, r.LMStalls, r.StageLMIterations, r.StageLMStalls,
		r.ShocksTried, r.ShocksAccepted, r.GrowthTried, r.GrowthAccepted, per}
}
