package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"dspot/internal/stats"
)

// forecastHorizons are the horizons the differential tests read at: one
// tick, a quarter, a year, and far enough past the head to run through
// several projected cyclic occurrences.
var forecastHorizons = []int{1, 13, 52, 150}

// bitsDiffer reports the first index where two forecasts differ by bit
// pattern, or -1 when they are identical (a length mismatch reports the
// shorter length).
func bitsDiffer(a, b []float64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return k
		}
	}
	return -1
}

// checkForecastOracle fails t unless s.Forecast(h) is bit-identical to the
// batch oracle Model().ForecastGlobal(0, h) at every horizon. It also
// validates the model: Model() copies the strength rows as they are, so a
// fitted stream must itself carry a strength for every occurrence its
// window holds.
func checkForecastOracle(t *testing.T, what string, s *Stream) {
	t.Helper()
	m := s.Model()
	if err := m.Validate(); err != nil {
		t.Fatalf("%s: stream model fails validation: %v", what, err)
	}
	for _, h := range forecastHorizons {
		got, want := s.Forecast(h), m.ForecastGlobal(0, h)
		if k := bitsDiffer(got, want); k >= 0 {
			if k < len(got) && k < len(want) {
				t.Fatalf("%s: Forecast(%d)[%d] = %v, oracle %v", what, h, k, got[k], want[k])
			}
			t.Fatalf("%s: Forecast(%d) has %d ticks, oracle %d", what, h, len(got), len(want))
		}
	}
}

// forecastRun is what one differential scenario went through, so each
// case can assert that it exercised the path it is named after.
type forecastRun struct {
	refits, refitErrors, tailShocks, restores int
	cyclic, growth                            bool
}

// driveForecastOracle appends series[from:] to s one tick at a time and
// checks the forecast against the oracle after every append. With
// restoreEvery > 0 it replaces the stream with RestoreStream(State()) every
// restoreEvery ticks and checks the restored stream before appending on.
func driveForecastOracle(t *testing.T, s *Stream, opts FitOptions, series []float64, from, restoreEvery int) (*Stream, forecastRun) {
	t.Helper()
	var run forecastRun
	note := func(s *Stream) {
		for _, sh := range s.result.Shocks {
			if sh.Period > 0 && futureStrength(sh.Strength) > 0 {
				run.cyclic = true
			}
		}
		if s.result.Params.TEta != NoGrowth {
			run.growth = true
		}
	}
	checkForecastOracle(t, fmt.Sprintf("after seeding %d ticks", from), s)
	note(s)
	for i := from; i < len(series); i++ {
		shocks := len(s.result.Shocks)
		refitted, err := s.Append(series[i])
		switch {
		case err != nil:
			run.refitErrors++
		case refitted:
			run.refits++
		case len(s.result.Shocks) > shocks:
			run.tailShocks++
		}
		checkForecastOracle(t, fmt.Sprintf("after tick %d", i), s)
		note(s)
		if restoreEvery > 0 && (i+1)%restoreEvery == 0 {
			s = RestoreStream(opts, s.State())
			run.restores++
			checkForecastOracle(t, fmt.Sprintf("after restore at tick %d", i), s)
		}
	}
	return s, run
}

// servebenchLikeSeries is SIV dynamics driven by a yearly event of the
// given width, strength and phase, plus 3% noise — the shape of the served
// ingest streams, whose cold fit on two cycles accepts a growth phase.
func servebenchLikeSeries(n, width int, strength float64, phase int, seed int64) []float64 {
	eps := make([]float64, n)
	for t := range eps {
		eps[t] = 1
		if (t+52-phase)%52 < width {
			eps[t] += strength
		}
	}
	p := KeywordParams{N: 100, Beta: 0.55, Delta: 0.475, Gamma: 0.425, I0: 0.01, TEta: NoGrowth}
	out := Simulate(&p, n, eps, -1)
	noise := 0.03 * stats.Max(out[:min(n, 208)])
	rng := rand.New(rand.NewSource(seed))
	for t := range out {
		out[t] = math.Max(out[t]+noise*rng.NormFloat64(), 0)
	}
	return out
}

// TestStreamForecastMatchesModel is the differential test of the
// checkpoint forecast: at every tick of each scenario, Stream.Forecast(h)
// must be bit-identical to Model().ForecastGlobal(0, h), which re-simulates
// the whole window, for every h in forecastHorizons. The scenarios cover
// each way the stream's state moves: tail-discovered shocks, cyclic shocks
// with projected occurrences, a failed refit keeping the last good fit,
// retention evictions, debt-triggered refits, restores from snapshots, and
// an accepted growth phase. The batch-* scenarios run them under the
// RefitBatch policy, whose refits fire on the tick cadence.
func TestStreamForecastMatchesModel(t *testing.T) {
	quiet := FitOptions{DisableGrowth: true}

	t.Run("tail-shock", func(t *testing.T) {
		s := NewIncrementalStream(quiet, 26, IncrementalConfig{TailWindow: 52, DebtLimit: 1e12})
		full := spikedSeries(420, 320, 327, 3.5, 91)
		if _, err := s.Append(full[:300]...); err != nil {
			t.Fatal(err)
		}
		_, run := driveForecastOracle(t, s, quiet, full, 300, 0)
		if run.tailShocks == 0 {
			t.Fatal("scenario accepted no tail shock")
		}
	})

	t.Run("cyclic-headroom", func(t *testing.T) {
		s := NewIncrementalStream(quiet, 26, IncrementalConfig{TailWindow: 52, DebtLimit: 1e12})
		full := headroomSeries(500, 17)
		if _, err := s.Append(full[:340]...); err != nil {
			t.Fatal(err)
		}
		if _, run := driveForecastOracle(t, s, quiet, full, 340, 0); !run.cyclic {
			t.Fatal("scenario has no cyclic shock with projected occurrences")
		}
	})

	t.Run("cyclic-grammy", func(t *testing.T) {
		s := NewIncrementalStream(quiet, 26, IncrementalConfig{TailWindow: 104, DebtLimit: 1e12})
		full := grammyLike(460, 44)
		if _, err := s.Append(full[:300]...); err != nil {
			t.Fatal(err)
		}
		if _, run := driveForecastOracle(t, s, quiet, full, 300, 0); !run.cyclic {
			t.Fatal("scenario has no cyclic shock with projected occurrences")
		}
	})

	t.Run("failed-refit", func(t *testing.T) {
		poisoned := false
		opts := FitOptions{DisableGrowth: true, Progress: func(FitEvent) {
			if poisoned {
				panic("injected refit fault")
			}
		}}
		s := NewIncrementalStream(opts, 8, IncrementalConfig{TailWindow: 26, DebtLimit: 40})
		full := grammyLike(420, 98)
		if _, err := s.Append(full[:300]...); err != nil {
			t.Fatal(err)
		}
		poisoned = true
		if _, run := driveForecastOracle(t, s, opts, full, 300, 0); run.refitErrors == 0 {
			t.Fatal("scenario had no failed refit")
		}
	})

	t.Run("evictions", func(t *testing.T) {
		s := NewIncrementalStream(quiet, 26, IncrementalConfig{TailWindow: 52, DebtLimit: 1e12})
		s.SetRetention(200)
		full := grammyLike(700, 19)
		if _, err := s.Append(full[:300]...); err != nil {
			t.Fatal(err)
		}
		s, _ = driveForecastOracle(t, s, quiet, full, 300, 0)
		if s.EvictedTicks() < 400 {
			t.Fatalf("only %d ticks evicted", s.EvictedTicks())
		}
	})

	t.Run("debt-refits", func(t *testing.T) {
		s := NewIncrementalStream(quiet, 1000, IncrementalConfig{TailWindow: 26, DebtLimit: 40})
		full := grammyLike(560, 19)
		if _, err := s.Append(full[:300]...); err != nil {
			t.Fatal(err)
		}
		if _, run := driveForecastOracle(t, s, quiet, full, 300, 0); run.refits < 2 {
			t.Fatalf("%d debt-triggered refits, want at least 2", run.refits)
		}
	})

	t.Run("restore-every-25", func(t *testing.T) {
		s := NewIncrementalStream(quiet, 26, IncrementalConfig{TailWindow: 52, DebtLimit: 120})
		full := spikedSeries(460, 320, 327, 3.5, 91)
		if _, err := s.Append(full[:300]...); err != nil {
			t.Fatal(err)
		}
		if _, run := driveForecastOracle(t, s, quiet, full, 300, 25); run.restores < 6 {
			t.Fatalf("%d restores, want at least 6", run.restores)
		}
	})

	t.Run("batch-restore-every-9", func(t *testing.T) {
		s := NewStream(quiet, 8)
		full := grammyLike(420, 44)
		if _, err := s.Append(full[:300]...); err != nil {
			t.Fatal(err)
		}
		_, run := driveForecastOracle(t, s, quiet, full, 300, 9)
		if run.refits < 10 || run.restores < 10 || !run.cyclic {
			t.Fatalf("want cadence refits and restores over a cyclic shock, got %+v", run)
		}
	})

	t.Run("batch-failed-refit", func(t *testing.T) {
		poisoned := false
		opts := FitOptions{DisableGrowth: true, Progress: func(FitEvent) {
			if poisoned {
				panic("injected refit fault")
			}
		}}
		s := NewStream(opts, 8)
		full := grammyLike(420, 98)
		if _, err := s.Append(full[:300]...); err != nil {
			t.Fatal(err)
		}
		poisoned = true
		if _, run := driveForecastOracle(t, s, opts, full, 300, 0); run.refitErrors == 0 {
			t.Fatal("scenario had no failed refit")
		}
	})

	t.Run("batch-evictions", func(t *testing.T) {
		s := NewStream(quiet, 26)
		s.SetRetention(200)
		full := grammyLike(700, 19)
		if _, err := s.Append(full[:300]...); err != nil {
			t.Fatal(err)
		}
		s, run := driveForecastOracle(t, s, quiet, full, 300, 0)
		if s.EvictedTicks() < 400 || run.refits < 10 {
			t.Fatalf("only %d ticks evicted and %d refits", s.EvictedTicks(), run.refits)
		}
	})

	t.Run("growth", func(t *testing.T) {
		// The served ingest streams: one cold fit on two yearly cycles, no
		// consolidating refit after it.
		shapes := []struct {
			width    int
			strength float64
			phase    int
		}{{3, 6, 11}, {2, 4, 29}, {2, 8, 3}, {3, 5, 40}}
		grown := 0
		for k, sh := range shapes {
			opts := FitOptions{Workers: 1}
			s := NewIncrementalStream(opts, 1_000_000, IncrementalConfig{})
			s.SetRetention(312)
			full := servebenchLikeSeries(520, sh.width, sh.strength, sh.phase, int64(k+1))
			if _, err := s.Append(full[:104]...); err != nil {
				t.Fatal(err)
			}
			_, run := driveForecastOracle(t, s, opts, full, 104, 0)
			if run.growth {
				grown++
			}
		}
		t.Logf("%d of %d streams accepted a growth phase", grown, len(shapes))
		if grown == 0 {
			t.Fatal("no stream accepted a growth phase")
		}
	})
}

// TestStreamForecastConcurrentReaders: Forecast is read-only, so readers
// may share one stream without a lock among themselves. Run under -race,
// four goroutines forecasting at once must neither race nor disagree with
// the oracle.
func TestStreamForecastConcurrentReaders(t *testing.T) {
	s := NewIncrementalStream(FitOptions{DisableGrowth: true}, 26,
		IncrementalConfig{TailWindow: 52, DebtLimit: 1e12})
	full := grammyLike(460, 44)
	if _, err := s.Append(full[:300]...); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(full[300:]...); err != nil {
		t.Fatal(err)
	}
	want := s.Model().ForecastGlobal(0, 13)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if k := bitsDiffer(s.Forecast(13), want); k >= 0 {
					errs <- fmt.Sprintf("concurrent Forecast(13) differs from the oracle at %d", k)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestStreamForecastCostFlat is the O(horizon) gate for stream forecasts:
// Forecast(13) allocates its result and nothing else, at retention 500 and
// at 5000 alike.
func TestStreamForecastCostFlat(t *testing.T) {
	for _, retention := range []int{500, 5000} {
		s := NewIncrementalStream(FitOptions{DisableGrowth: true}, 26,
			IncrementalConfig{TailWindow: 104, DebtLimit: 1e12})
		s.SetRetention(retention)
		full := grammyLike(retention, 55)
		if _, err := s.Append(full[:300]...); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(full[300:]...); err != nil {
			t.Fatal(err)
		}
		if s.Len() != retention {
			t.Fatalf("stream holds %d ticks, want %d", s.Len(), retention)
		}
		allocs := testing.AllocsPerRun(200, func() { _ = s.Forecast(13) })
		t.Logf("retention %d: Forecast(13) allocates %.0f objects", retention, allocs)
		if allocs != 1 {
			t.Fatalf("retention %d: Forecast(13) allocates %.0f objects, want 1", retention, allocs)
		}
	}
}
