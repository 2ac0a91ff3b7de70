package core

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"
)

// fullStrengths materialises one strength per occurrence over n ticks so a
// test shock needs no future-padding anywhere.
func fullStrengths(s Shock, n int, val float64) Shock {
	occ := s.Occurrences(n)
	s.Strength = make([]float64, occ)
	for m := range s.Strength {
		s.Strength[m] = val * (1 + 0.1*float64(m%3))
	}
	return s
}

// TestIncrementalStepMatchesSimulate pins the bit-identity contract of the
// incremental path: replaying a sequence tick-by-tick through incState
// must produce exactly the bits SimulateInto produces for the same
// parameters and shock set — growth onset, normalised N and ε
// accumulation order included.
func TestIncrementalStepMatchesSimulate(t *testing.T) {
	const n, w = 300, 64
	cases := []struct {
		name   string
		params KeywordParams
		shocks []Shock
	}{
		{"base-only", KeywordParams{N: 100, Beta: 0.5, Delta: 0.45, Gamma: 0.5, I0: 0.02, TEta: NoGrowth}, nil},
		{"cyclic-shock", truthBase, []Shock{
			fullStrengths(Shock{Period: 52, Start: 6, Width: 2}, n, 9),
		}},
		{"growth-and-mixed-shocks", KeywordParams{N: 80, Beta: 0.55, Delta: 0.4, Gamma: 0.3, I0: 0.03, Eta0: 0.4, TEta: 120}, []Shock{
			fullStrengths(Shock{Period: 52, Start: 10, Width: 3}, n, 7),
			fullStrengths(Shock{Period: NonCyclic, Start: 200, Width: 4}, n, 12),
		}},
		{"growth-from-zero", KeywordParams{N: 120, Beta: 0.6, Delta: 0.5, Gamma: 0.45, I0: 0.05, Eta0: 0.2, TEta: 0}, []Shock{
			fullStrengths(Shock{Period: 26, Start: 0, Width: 1}, n, 5),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const scale = 137.25
			raw := tc.params
			raw.N *= scale
			seq := synthGlobal(tc.params, tc.shocks, n, 0.01, 7)
			res := GlobalFitResult{Params: raw, Shocks: CopyShocks(tc.shocks), Scale: scale}

			// Build over a prefix, then advance the rest one tick at a time —
			// exercising both the replay and the live-append paths.
			st := newIncState(seq[:n/2], &res, nil, w)
			for _, v := range seq[n/2:] {
				st.advance(res.Shocks, v)
			}

			pnorm := raw
			pnorm.N = raw.N / scale
			eps := epsilonFromShocks(tc.shocks, n)
			want := SimulateInto(nil, &pnorm, n, eps, -1)
			for tt := n - w; tt < n; tt++ {
				if got := st.sim[tt%w]; got != want[tt] {
					t.Fatalf("tick %d: incremental %v != batch %v", tt, got, want[tt])
				}
			}
		})
	}
}

// spikedSeries is grammyLike with an off-cycle burst multiplied in, so the
// incremental tail scan has genuine new structure to discover.
func spikedSeries(n int, lo, hi int, gain float64, seed int64) []float64 {
	full := grammyLike(n, seed)
	for t := lo; t < hi && t < n; t++ {
		full[t] *= gain
	}
	return full
}

// TestIncrementalRestoreBitIdentical is the mid-window snapshot/restore
// equivalence test: RestoreStream(State()) taken mid-window — with pending
// refit debt and a tail-discovered shock in play — must continue
// bit-identically to the uninterrupted stream under identical appends.
func TestIncrementalRestoreBitIdentical(t *testing.T) {
	opts := FitOptions{DisableGrowth: true}
	full := spikedSeries(420, 320, 327, 3.5, 91)
	cfg := IncrementalConfig{TailWindow: 52, DebtLimit: 120}

	s1 := NewIncrementalStream(opts, 26, cfg)
	if _, err := s1.Append(full[:300]...); err != nil {
		t.Fatal(err)
	}
	if !s1.Ready() {
		t.Fatal("stream not fitted after seed")
	}
	for _, v := range full[300:350] {
		if _, err := s1.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	snap := s1.State()
	if snap.Debt <= 0 {
		t.Fatalf("scenario should have pending refit debt at the snapshot, got %v", snap.Debt)
	}
	if snap.Mode != RefitIncremental {
		t.Fatalf("snapshot mode = %v", snap.Mode)
	}
	s2 := RestoreStream(opts, snap)

	for _, v := range full[350:] {
		r1, err1 := s1.Append(v)
		r2, err2 := s2.Append(v)
		if r1 != r2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("divergent append outcome: live (%v,%v) restored (%v,%v)", r1, err1, r2, err2)
		}
	}
	st1, st2 := s1.State(), s2.State()
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("states diverged after identical appends:\nlive:     %+v\nrestored: %+v", st1, st2)
	}
	f1, f2 := s1.Forecast(52), s2.Forecast(52)
	if !reflect.DeepEqual(f1, f2) {
		t.Fatal("forecasts diverged after identical appends")
	}
}

// headroomSeries is a synthetic stream built so that bursts appended after
// the fit stay inside the model's amplitude headroom: a large one-shot early
// on sets the normalisation scale (~78), while the steady state between
// annual spikes sits near 0.16 of it — so a 3× burst is still well below the
// out = N·i(t) ≤ N ceiling and the tail scan can actually model it. (A burst
// past the ceiling is the stale-scale case, covered separately below.)
func headroomSeries(n int, seed int64) []float64 {
	occ := 0
	if n > 30 {
		occ = (n-1-30)/52 + 1
	}
	str := make([]float64, occ)
	for i := range str {
		str[i] = 4.5
	}
	shocks := []Shock{
		{Period: NonCyclic, Start: 15, Width: 3, Strength: []float64{40}},
		{Period: 52, Start: 30, Width: 2, Strength: str},
	}
	return synthGlobal(truthBase, shocks, n, 0.005, seed)
}

// TestIncrementalTailShockDiscovered: a burst appended after the fit must be
// picked up by the O(tail) scan — a new shock appears and the spike residual
// shrinks — without any full batch refit happening.
func TestIncrementalTailShockDiscovered(t *testing.T) {
	opts := FitOptions{DisableGrowth: true}
	base := headroomSeries(400, 17)
	s := NewIncrementalStream(opts, 26, IncrementalConfig{TailWindow: 52, DebtLimit: 1e12})
	if _, err := s.Append(base[:340]...); err != nil {
		t.Fatal(err)
	}
	before := len(s.Model().Shocks)
	debtBefore := s.Debt()

	// Off-cycle burst at ticks 350-356: 3× the quiet level is ~0.5 of the
	// series max — visible above the seed level, within model headroom.
	burst := append([]float64(nil), base[340:]...)
	for i := 10; i < 17; i++ {
		burst[i] *= 3
	}
	refitted, err := s.Append(burst...)
	if err != nil {
		t.Fatal(err)
	}
	if refitted {
		t.Fatal("tail discovery must not trigger a full refit")
	}
	shocks := s.Model().Shocks
	if len(shocks) <= before {
		t.Fatalf("no tail shock discovered: %d shocks before, %d after", before, len(shocks))
	}
	found := false
	for _, sh := range shocks {
		if sh.Period == NonCyclic && sh.Start >= 344 && sh.Start <= 360 {
			found = true
		}
	}
	if !found {
		t.Fatalf("discovered shock not at the burst: %+v", shocks)
	}
	if s.Debt() < debtBefore+debtTailShock {
		t.Fatalf("structural change should accrue extra debt: %v -> %v", debtBefore, s.Debt())
	}
}

// TestIncrementalStaleScaleAcceleratesRefit: a burst past the fitted scale
// cannot be modelled incrementally (out = N·i ≤ N), so each over-scale tick
// accrues the stale-scale debt surcharge and the full refit — which
// re-normalises — fires much sooner than quiet ticks alone would schedule.
func TestIncrementalStaleScaleAcceleratesRefit(t *testing.T) {
	opts := FitOptions{DisableGrowth: true}
	base := headroomSeries(400, 17)
	s := NewIncrementalStream(opts, 1000, IncrementalConfig{TailWindow: 52, DebtLimit: 100})
	if _, err := s.Append(base[:340]...); err != nil {
		t.Fatal(err)
	}
	oldScale := s.result.Scale
	if _, err := s.Append(base[340:350]...); err != nil {
		t.Fatal(err)
	}

	refitAfter := -1
	for i := 0; i < 40; i++ {
		refitted, err := s.Append(3 * oldScale)
		if err != nil {
			t.Fatal(err)
		}
		if refitted {
			refitAfter = i + 1
			break
		}
	}
	if refitAfter < 0 {
		t.Fatal("over-scale burst never accelerated a full refit")
	}
	// Quiet ticks accrue 1 debt/tick: from ~10 pending it would take ~90
	// quiet ticks to hit the limit of 100 — the surcharge must beat that.
	if refitAfter > 30 {
		t.Fatalf("stale-scale refit fired only after %d over-scale ticks", refitAfter)
	}
	if s.result.Scale < 2*oldScale {
		t.Fatalf("full refit should re-normalise to the burst amplitude: scale %.1f -> %.1f", oldScale, s.result.Scale)
	}
	if s.Debt() != 0 {
		t.Fatalf("debt not reset by the stale-scale refit: %v", s.Debt())
	}
}

// TestIncrementalDebtTriggersFullRefit: quiet ticks accrue one debt unit
// each, and the full batch refit fires exactly when the configured limit is
// crossed, resetting the debt.
func TestIncrementalDebtTriggersFullRefit(t *testing.T) {
	opts := FitOptions{DisableGrowth: true}
	full := grammyLike(600, 19)
	s := NewIncrementalStream(opts, 1000, IncrementalConfig{TailWindow: 26, DebtLimit: 40})
	if _, err := s.Append(full[:300]...); err != nil {
		t.Fatal(err)
	}
	refits := 0
	for _, v := range full[300:550] {
		refitted, err := s.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		if refitted {
			refits++
			if s.Debt() != 0 {
				t.Fatalf("debt not reset by full refit: %v", s.Debt())
			}
		} else if s.Debt() >= s.DebtLimit() {
			t.Fatalf("debt %v at/over limit %v without a refit", s.Debt(), s.DebtLimit())
		}
	}
	if refits < 2 {
		t.Fatalf("expected at least 2 debt-scheduled refits over 250 quiet ticks, got %d", refits)
	}
}

// TestStreamRefitBackoffSpacing pins the exponential retry schedule: a
// persistently failing refit is retried after RefitEvery ticks, then 2×,
// 4×, … — not on every append — and a subsequent successful refit clears
// the backoff.
func TestStreamRefitBackoffSpacing(t *testing.T) {
	poisoned := true
	opts := FitOptions{DisableGrowth: true, Progress: func(FitEvent) {
		if poisoned {
			panic("injected refit fault")
		}
	}}
	s := NewStream(opts, 4)
	full := grammyLike(200, 99)

	if _, err := s.Append(full[:10]...); err == nil {
		t.Fatal("poisoned first fit should fail")
	}
	var errTicks []int
	for i, v := range full[10:74] {
		_, err := s.Append(v)
		if err != nil {
			errTicks = append(errTicks, i+1)
		}
	}
	want := []int{4, 12, 28, 60} // gaps 4, 8, 16, 32 = RefitEvery × 2^k
	if !reflect.DeepEqual(errTicks, want) {
		t.Fatalf("retry attempts at ticks %v, want %v", errTicks, want)
	}
	if s.Ready() {
		t.Fatal("stream should not be fitted under persistent faults")
	}

	poisoned = false
	var refitted bool
	for _, v := range full[74:] {
		var err error
		refitted, err = s.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		if refitted {
			break
		}
	}
	if !refitted || !s.Ready() {
		t.Fatal("healed stream should fit on the next scheduled retry")
	}
	if s.RetryIn() != 0 {
		t.Fatalf("successful refit should clear the backoff, RetryIn=%d", s.RetryIn())
	}
}

// TestStreamRefitBackoffPreservesLastGoodFit: a fitted stream whose refits
// start failing keeps serving the last good model, and appends inside the
// backoff window are cheap successes rather than repeated fit errors.
func TestStreamRefitBackoffPreservesLastGoodFit(t *testing.T) {
	poisoned := false
	opts := FitOptions{DisableGrowth: true, Progress: func(FitEvent) {
		if poisoned {
			panic("injected refit fault")
		}
	}}
	s := NewStream(opts, 8)
	full := grammyLike(200, 98)
	if _, err := s.Append(full[:120]...); err != nil {
		t.Fatal(err)
	}
	modelBefore := s.Model()

	poisoned = true
	errs := 0
	for _, v := range full[120:160] {
		if _, err := s.Append(v); err != nil {
			errs++
		}
	}
	if errs == 0 || errs > 3 {
		t.Fatalf("expected 1-3 spaced refit errors over 40 ticks (backoff), got %d", errs)
	}
	if !reflect.DeepEqual(modelBefore.Shocks, s.Model().Shocks) {
		t.Fatal("failed refits must preserve the last good fit")
	}
}

// TestIncrementalForecastComparableToBatch: the incremental path is judged
// against the batch ground truth by forecast quality — its holdout NRMSE
// must stay within a tolerance band of the batch stream fed identically.
func TestIncrementalForecastComparableToBatch(t *testing.T) {
	opts := FitOptions{DisableGrowth: true}
	full := grammyLike(460, 44)
	train, hold := full[:408], full[408:]

	feed := func(s *Stream) {
		for i := 0; i < len(train); i += 8 {
			hi := i + 8
			if hi > len(train) {
				hi = len(train)
			}
			if _, err := s.Append(train[i:hi]...); err != nil {
				t.Fatal(err)
			}
		}
	}
	batch := NewStream(opts, 26)
	feed(batch)
	inc := NewIncrementalStream(opts, 26, IncrementalConfig{TailWindow: 104})
	feed(inc)

	nrmse := func(fc []float64) float64 {
		if len(fc) < len(hold) {
			t.Fatalf("short forecast: %d < %d", len(fc), len(hold))
		}
		sse, mean := 0.0, 0.0
		for i, v := range hold {
			d := fc[i] - v
			sse += d * d
			mean += v
		}
		mean /= float64(len(hold))
		return math.Sqrt(sse/float64(len(hold))) / mean
	}
	bn := nrmse(batch.Forecast(len(hold)))
	in := nrmse(inc.Forecast(len(hold)))
	t.Logf("holdout NRMSE: batch %.4f incremental %.4f", bn, in)
	if in > bn*1.5+0.05 {
		t.Fatalf("incremental forecast NRMSE %.4f outside equivalence bound of batch %.4f", in, bn)
	}
}

// TestStreamModeAndCadenceSetters covers the mode/cadence surface the
// registry drives: SetRefitEvery on a live stream, SetMode round-trips, and
// RefitNow forcing a consolidation regardless of pending debt.
func TestStreamModeAndCadenceSetters(t *testing.T) {
	opts := FitOptions{DisableGrowth: true}
	s := NewStream(opts, 50)
	if s.Mode() != RefitBatch || s.RefitEvery() != 50 {
		t.Fatalf("defaults: mode %v refitEvery %d", s.Mode(), s.RefitEvery())
	}
	s.SetRefitEvery(-3)
	if s.RefitEvery() != 50 {
		t.Fatal("non-positive SetRefitEvery must be ignored")
	}
	s.SetRefitEvery(10)
	if s.RefitEvery() != 10 {
		t.Fatal("SetRefitEvery(10) not honored")
	}

	full := grammyLike(200, 12)
	if _, err := s.Append(full[:100]...); err != nil {
		t.Fatal(err)
	}
	s.SetMode(RefitIncremental)
	if s.Mode() != RefitIncremental || s.inc == nil {
		t.Fatal("SetMode(RefitIncremental) on a fitted stream must build the incremental state")
	}
	if _, err := s.Append(full[100:150]...); err != nil {
		t.Fatal(err)
	}
	if s.Debt() <= 0 {
		t.Fatal("incremental appends must accrue debt")
	}
	if err := s.RefitNow(nil); err != nil {
		t.Fatal(err)
	}
	if s.Debt() != 0 {
		t.Fatal("RefitNow must clear pending debt")
	}
	s.SetMode(RefitBatch)
	if s.inc != nil || s.Debt() != 0 {
		t.Fatal("SetMode(RefitBatch) must drop the incremental state")
	}

	if _, ok := ParseRefitMode("incremental"); !ok {
		t.Fatal("ParseRefitMode(incremental)")
	}
	if _, ok := ParseRefitMode("nope"); ok {
		t.Fatal("ParseRefitMode should reject unknown names")
	}
	if RefitIncremental.String() != "incremental" || RefitBatch.String() != "batch" {
		t.Fatal("RefitMode.String wire names")
	}
}

// TestStreamAppendLatencySLO enforces the tentpole's bounded-time contract:
// p99 per-append latency below 10ms with 10k ticks already in the stream.
// The debt limit is set out of reach so the measurement isolates the
// incremental path — the amortised full refit is a scheduled O(n) event the
// debt model accounts for separately (benchmarked in BenchmarkStreamAppend).
func TestStreamAppendLatencySLO(t *testing.T) {
	if testing.Short() {
		t.Skip("latency SLO test skipped in -short")
	}
	opts := FitOptions{DisableGrowth: true}
	full := grammyLike(10300, 77)
	s := NewIncrementalStream(opts, 26, IncrementalConfig{TailWindow: 104, DebtLimit: 1e12})
	if _, err := s.Append(full[:300]...); err != nil {
		t.Fatal(err)
	}
	lat := make([]float64, 0, 10000)
	for _, v := range full[300:] {
		t0 := time.Now()
		if _, err := s.Append(v); err != nil {
			t.Fatal(err)
		}
		lat = append(lat, time.Since(t0).Seconds())
	}
	sort.Float64s(lat)
	p99 := lat[len(lat)*99/100]
	t.Logf("append p99 = %.3fms over %d appends at n=10k", p99*1e3, len(lat))
	if p99 > 0.010 {
		t.Fatalf("append p99 %.3fms exceeds the 10ms SLO", p99*1e3)
	}
}

// TestStreamAppendAllocsBounded keeps the incremental append path from
// growing per-tick allocations: quiet single-tick appends must stay within
// a small constant allocation budget.
func TestStreamAppendAllocsBounded(t *testing.T) {
	opts := FitOptions{DisableGrowth: true}
	full := grammyLike(2000, 55)
	s := NewIncrementalStream(opts, 26, IncrementalConfig{TailWindow: 104, DebtLimit: 1e12})
	if _, err := s.Append(full[:600]...); err != nil {
		t.Fatal(err)
	}
	next := 600
	avg := testing.AllocsPerRun(1000, func() {
		if _, err := s.Append(full[next%len(full)]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if avg > 8 {
		t.Fatalf("incremental append allocates %.1f objects per tick; budget is 8", avg)
	}
}

// TestIncrementalKnownShockRefined: when a known cyclic shock recurs at a
// very different magnitude, the tail scan refits that occurrence's strength
// in place instead of stacking a new shock.
func TestIncrementalKnownShockRefined(t *testing.T) {
	opts := FitOptions{DisableGrowth: true}
	full := headroomSeries(400, 17)
	s := NewIncrementalStream(opts, 26, IncrementalConfig{TailWindow: 52, DebtLimit: 1e12})
	if _, err := s.Append(full[:340]...); err != nil {
		t.Fatal(err)
	}
	si := -1
	for i := range s.result.Shocks {
		if s.result.Shocks[i].Period > 0 {
			si = i
		}
	}
	if si < 0 {
		t.Fatal("seed fit found no cyclic shock; scenario broken")
	}
	annual := s.result.Shocks[si]
	projected := annual.MeanStrength()
	// Locate the first occurrence window starting after the seed and amplify
	// exactly those ticks — the residual apex then falls inside the window,
	// which is the contract for in-place refinement over new-shock stacking.
	o := -1
	for m := 0; ; m++ {
		if st := annual.OccurrenceStart(m); st >= 340 {
			o = st
			break
		} else if st < 0 || st > 400 {
			break
		}
	}
	if o < 0 || o+annual.Width+8 > 400 {
		t.Fatalf("no refittable occurrence after the seed (o=%d)", o)
	}
	for tt := o; tt < o+annual.Width; tt++ {
		full[tt] *= 2.5
	}
	nshocks := len(s.result.Shocks)
	refitted, err := s.Append(full[340 : o+annual.Width+8]...)
	if err != nil {
		t.Fatal(err)
	}
	if refitted {
		t.Fatal("occurrence refinement must not trigger a full refit")
	}
	got := s.result.Shocks[si]
	m := got.OccurrenceAt(o)
	if m < 0 || m >= len(got.Strength) {
		t.Fatalf("occurrence at %d not materialised (m=%d, strengths=%d)", o, m, len(got.Strength))
	}
	if got.Strength[m] <= 1.2*projected {
		t.Fatalf("amplified occurrence strength %.2f not refined above the projection %.2f", got.Strength[m], projected)
	}
	if len(s.result.Shocks) != nshocks {
		t.Fatalf("refinement should not add shocks: %d -> %d", nshocks, len(s.result.Shocks))
	}
}
