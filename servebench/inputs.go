package main

import (
	"bytes"
	"math"
	"math/rand"

	"dspot/internal/core"
	"dspot/internal/datagen"
	"dspot/internal/dataset"
	"dspot/internal/stats"
	"dspot/internal/tensor"
)

// mix derives an independent RNG seed for item i of stream k of a run.
func mix(seed int64, k, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k)*0xbf58476d1ce4e5b9 + uint64(i)*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xd6e8feb86467be1d
	x ^= x >> 29
	return int64(x >> 1)
}

// deckJob is one fit job of the fit-jobs deck.
type deckJob struct {
	x   *tensor.Tensor
	csv []byte
}

// Deck shape: 1–2 keywords, 2–3 locations and 48–88 ticks from the
// GoogleTrends-, Twitter- and MemeTracker-like generators. Single-threaded
// full fits of these take about 5–500 ms (0.15 s on average on a 2-vCPU
// Xeon VM), so a run of a few tens of seconds completes well over 100 jobs
// and the fit times spread continuously, with no gap at p50 or p90.
const (
	deckMinTicks = 48
	deckMaxTicks = 88
	// deckTemplates is the cycle of job shapes every run goes through
	// about three times.
	deckTemplates = 64
)

// deckJobAt returns job i of the deck for seed: the same seed and index
// always give the same tensor. Job i takes template i%deckTemplates —
// generator, keyword count and choice, location count and length — which
// is the same for every seed, so every run fits the same mix of shapes;
// the seed draws the data. Which keyword a job fits moves its cost far
// more than the data does (1 ms to 500 ms), and drawing it from the seed
// too made the median fit time differ 17% between seeds.
func deckJobAt(seed int64, i int) deckJob {
	t := i % deckTemplates
	shape := rand.New(rand.NewSource(mix(0, 1, t)))
	gen := t % 3
	d := 1
	if (t/6)%4 == 3 {
		d = 2
	}
	cfg := datagen.Config{
		Locations: 2 + (t/3)%2,
		Ticks:     deckMinTicks + shape.Intn(deckMaxTicks-deckMinTicks+1),
		Seed:      mix(seed, 1, i),
	}
	var world *tensor.Tensor
	switch gen {
	case 0:
		world = datagen.GoogleTrends(cfg).Tensor
	case 1:
		world = datagen.Twitter(6, cfg).Tensor
	default:
		world = datagen.MemeTracker(6, cfg).Tensor
	}
	return newDeckJob(pick(world, shape.Perm(world.D())[:d]))
}

// warmupJob is the fixed job fit-jobs runs during set-up, the same for
// every seed so that set-up time does not depend on the seed.
func warmupJob() deckJob {
	x := datagen.GoogleTrends(datagen.Config{Locations: 2, Ticks: 78, Seed: 1}).Tensor
	return newDeckJob(pick(x, []int{6}))
}

func newDeckJob(x *tensor.Tensor) deckJob {
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, x); err != nil {
		panic(err) // writing to a bytes.Buffer fails only on a bug
	}
	return deckJob{x: x, csv: buf.Bytes()}
}

// pick returns the sub-tensor of the given keywords.
func pick(x *tensor.Tensor, kws []int) *tensor.Tensor {
	names := make([]string, len(kws))
	for i, k := range kws {
		names[i] = x.Keywords[k]
	}
	y := tensor.New(names, x.Locations, x.N())
	for i, k := range kws {
		for j := range x.Locations {
			for t := 0; t < x.N(); t++ {
				y.Set(i, j, t, x.At(k, j, t))
			}
		}
	}
	return y
}

// streamShape is the yearly event that drives one ingest stream.
type streamShape struct {
	width    int
	strength float64
}

// streamPeriod is the period of every stream's event, in ticks.
const streamPeriod = 52

var streamShapes = []streamShape{{3, 6}, {2, 4}, {2, 8}, {3, 5}}

// series is one ingest stream's generated activity: SIV dynamics driven by
// a yearly event, plus noise. The noiseless signal is simulated until it
// settles into its yearly cycle and then repeats that cycle, so a stream
// can run for any length in constant memory. Tick t depends only on the
// seed, the stream and t. The first fixed ticks, the history streams are
// set up with, are the same for every seed, so that set-up does the same
// work whatever the seed; the seed draws the noise of every later tick.
type series struct {
	base  []float64 // noiseless signal; ends with one full cycle
	noise float64   // noise standard deviation
	seed  int64
	k     int
	fixed int
}

// settle is how many cycles the simulation runs past the set-up history
// before its last cycle is taken as the repeating one.
const settle = 40

func newSeries(seed int64, k, fixed int) *series {
	shape := streamShapes[k%len(streamShapes)]
	phase := int(uint64(mix(0, 2, k)) % streamPeriod)
	n := fixed + settle*streamPeriod
	eps := make([]float64, n)
	for t := range eps {
		eps[t] = 1
		if (t+streamPeriod-phase)%streamPeriod < shape.width {
			eps[t] += shape.strength
		}
	}
	p := core.KeywordParams{N: 100, Beta: 0.55, Delta: 0.475, Gamma: 0.425, I0: 0.01, TEta: core.NoGrowth}
	base := core.Simulate(&p, n, eps, -1)
	return &series{base: base, noise: 0.03 * stats.Max(base[:min(n, noiseRef)]),
		seed: seed, k: k, fixed: fixed}
}

// noiseRef is the prefix whose peak scales a series' noise.
const noiseRef = 208

// at returns tick t.
func (s *series) at(t int) float64 {
	n := len(s.base)
	b := t
	if t >= n {
		b = n - streamPeriod + (t-n)%streamPeriod
	}
	seed := s.seed
	if t < s.fixed {
		seed = 0
	}
	return math.Max(s.base[b]+s.noise*gauss(mix(seed, 3+s.k, t)), 0)
}

// span returns ticks [lo, hi).
func (s *series) span(lo, hi int) []float64 {
	out := make([]float64, hi-lo)
	for i := range out {
		out[i] = s.at(lo + i)
	}
	return out
}

// gauss maps a hash to a standard normal draw (Box–Muller).
func gauss(h int64) float64 {
	u1 := (float64(uint64(mix(h, 0, 1))>>11) + 1) / (1 << 53)
	u2 := float64(uint64(mix(h, 0, 2))>>11) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
