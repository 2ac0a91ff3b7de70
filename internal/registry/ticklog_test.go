package registry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dspot/internal/core"
	"dspot/internal/faultfs"
	"dspot/internal/obs"
	"dspot/internal/obs/trace"
)

// logSeries is SIV dynamics driven by a yearly (52-tick) event plus 3%
// noise: a stream whose tail scan keeps finding structure between refits.
func logSeries(n int) []float64 {
	eps := make([]float64, n)
	for t := range eps {
		eps[t] = 1
		if t%52 < 3 {
			eps[t] += 4
		}
	}
	p := core.KeywordParams{N: 100, Beta: 0.55, Delta: 0.475, Gamma: 0.425, I0: 0.01, TEta: core.NoGrowth}
	out := core.Simulate(&p, n, eps, -1)
	rng := rand.New(rand.NewSource(1))
	peak := 0.0
	for _, v := range out[:208] {
		peak = math.Max(peak, v)
	}
	for t := range out {
		out[t] = math.Max(out[t]+0.03*peak*rng.NormFloat64(), 0)
	}
	return out
}

// bitDiff reports where a and b first differ, comparing floats by bit
// pattern so that NaN, the missing-tick sentinel, matches itself. Nil and
// empty slices compare equal.
func bitDiff(a, b reflect.Value) (string, bool) {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf(": %v != %v", a.Float(), b.Float()), true
		}
	case reflect.Int, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf(": %d != %d", a.Int(), b.Int()), true
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf(": %v != %v", a.Bool(), b.Bool()), true
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf(": len %d != %d", a.Len(), b.Len()), true
		}
		for i := 0; i < a.Len(); i++ {
			if p, diff := bitDiff(a.Index(i), b.Index(i)); diff {
				return fmt.Sprintf("[%d]%s", i, p), true
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if p, diff := bitDiff(a.Field(i), b.Field(i)); diff {
				return "." + a.Type().Field(i).Name + p, true
			}
		}
	default:
		return fmt.Sprintf(": unhandled kind %v", a.Kind()), true
	}
	return "", false
}

// sameState fails t unless two stream states are bit-identical.
func sameState(t *testing.T, what string, got, want core.StreamState) {
	t.Helper()
	if p, diff := bitDiff(reflect.ValueOf(got), reflect.ValueOf(want)); diff {
		t.Fatalf("%s: restored state differs from the live one at StreamState%s", what, p)
	}
}

// liveState snapshots a stream of r (the tests run single-threaded).
func liveState(t *testing.T, r *Registry, id string) core.StreamState {
	t.Helper()
	st, ok := r.streams[id]
	if !ok {
		t.Fatalf("stream %q not loaded", id)
	}
	return st.s.State()
}

func compactions(m *Metrics, reason string) float64 {
	return m.compactions.With(reason).Value()
}

// TestStreamLogReplayBitIdentical reopens the data dir after every append
// of a 3000-tick run over a 2000-tick window: the snapshot plus its
// segment's replay must restore the live stream bit for bit. The run
// crosses positioned duplicates, gap fills, evictions, size-triggered
// compactions and tail shocks accepted between refits.
func TestStreamLogReplayBitIdentical(t *testing.T) {
	dir := t.TempDir()
	fit := core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 3}
	met := NewMetricsOn(obs.NewRegistry())
	r, err := Open(Options{DataDir: dir, StreamFit: fit, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	series := logSeries(3200)
	if _, err := r.AppendStream(ctx, "s", series[:104],
		AppendOptions{Mode: "incremental", Retention: 2000, RefitEvery: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	stride := 1
	if testing.Short() {
		stride = 23
	}
	shocks, accepted := len(liveState(t, r, "s").Result.Shocks), 0
	var st StreamStatus
	for i, n := 104, 0; i < len(series)-3; n++ {
		values, opts := series[i:i+1], AppendOptions{}
		switch {
		case n%89 == 0: // a producer replays its last three ticks with one new one
			values, opts = series[i-3:i+1], AppendOptions{At: int64(i - 3), AtSet: true}
			i++
		case n%113 == 0: // two ticks lost on the way
			values, opts = series[i+2:i+3], AppendOptions{At: int64(i + 2), AtSet: true}
			i += 3
		default:
			i++
		}
		if st, err = r.AppendStream(ctx, "s", values, opts); err != nil {
			t.Fatal(err)
		}
		live := liveState(t, r, "s")
		if k := len(live.Result.Shocks); k > shocks && st.Refits == 1 {
			accepted++
		}
		shocks = len(live.Result.Shocks)
		if n%stride != 0 {
			continue
		}
		r2, err := Open(Options{DataDir: dir, StreamFit: fit})
		if err != nil {
			t.Fatal(err)
		}
		sameState(t, fmt.Sprintf("after append %d (head %d)", n+1, st.Head), liveState(t, r2, "s"), live)
		if got := r2.streams["s"].refits; got != st.Refits {
			t.Fatalf("after append %d: restored refits %d, live %d", n+1, got, st.Refits)
		}
	}
	if st.Head < 3000 || st.Evicted == 0 || st.Dropped == 0 || st.GapFilled == 0 {
		t.Fatalf("run did not cross every replayed path: %+v", st)
	}
	if st.Refits != 1 || accepted == 0 {
		t.Fatalf("want tail shocks accepted between refits, got %d over %d refits", accepted, st.Refits)
	}
	if compactions(met, compactSize) == 0 {
		t.Fatal("no size-triggered compaction in the run")
	}
}

// TestStreamForecastAfterReopenMatchesModel: a stream reopened from its
// snapshot plus tick-log replay serves the same forecast as the live
// stream, bit for bit, and both equal the batch oracle
// Model().ForecastGlobal, which re-simulates the whole window. The run
// crosses evictions and tail shocks accepted between refits.
func TestStreamForecastAfterReopenMatchesModel(t *testing.T) {
	dir := t.TempDir()
	fit := core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 3}
	r, err := Open(Options{DataDir: dir, StreamFit: fit})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	series := logSeries(1000)
	if _, err := r.AppendStream(ctx, "s", series[:104],
		AppendOptions{Mode: "incremental", Retention: 400, RefitEvery: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	var st StreamStatus
	shocks, accepted := len(liveState(t, r, "s").Result.Shocks), 0
	for i := 104; i < len(series); i++ {
		if st, err = r.AppendStream(ctx, "s", series[i:i+1], AppendOptions{}); err != nil {
			t.Fatal(err)
		}
		k := len(liveState(t, r, "s").Result.Shocks)
		if k > shocks {
			accepted++
		}
		shocks = k
		if i%25 != 0 {
			continue
		}
		r2, err := Open(Options{DataDir: dir, StreamFit: fit})
		if err != nil {
			t.Fatal(err)
		}
		oracle := r2.streams["s"].s.Model()
		for _, h := range []int{1, 13, 52, 150} {
			live, err := r.StreamForecast("s", h)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r2.StreamForecast("s", h)
			if err != nil {
				t.Fatal(err)
			}
			want := oracle.ForecastGlobal(0, h)
			if p, diff := bitDiff(reflect.ValueOf(got), reflect.ValueOf(want)); diff {
				t.Fatalf("tick %d: reopened Forecast(%d) differs from the oracle at %s", i, h, p)
			}
			if p, diff := bitDiff(reflect.ValueOf(got), reflect.ValueOf(live)); diff {
				t.Fatalf("tick %d: reopened Forecast(%d) differs from the live one at %s", i, h, p)
			}
		}
	}
	if st.Evicted == 0 || st.Refits != 1 || accepted == 0 {
		t.Fatalf("want evictions and tail shocks accepted between refits, got %d over %+v", accepted, st)
	}
}

// TestStreamRefitErrorAppendPersisted: an append whose inline refit fails
// keeps its ticks in memory, so it must reach disk before the refit error
// returns. A reopen right after it shows the same head, length and retry
// backoff as the live stream.
func TestStreamRefitErrorAppendPersisted(t *testing.T) {
	var poisoned atomic.Bool
	fit := core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 3,
		Progress: func(core.FitEvent) {
			if poisoned.Load() {
				panic("injected refit fault")
			}
		}}
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir, StreamFit: fit})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	series := streamSeries(120)
	if _, err := r.AppendStream(ctx, "s", series[:60], AppendOptions{RefitEvery: 10}); err != nil {
		t.Fatal(err)
	}
	poisoned.Store(true)
	failed := false
	for _, v := range series[60:] {
		if _, err := r.AppendStream(ctx, "s", []float64{v}, AppendOptions{}); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("poisoned refit never failed an append")
	}
	live, err := r.StreamStatusFor("s")
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := reopenClean(t, dir)
	got, err := r2.StreamStatusFor("s")
	if err != nil {
		t.Fatal(err)
	}
	if got.Head != live.Head || got.Len != live.Len || got.RetryIn != live.RetryIn {
		t.Fatalf("reopen after a failed refit: head %d len %d retry_in %d, live %d %d %d",
			got.Head, got.Len, got.RetryIn, live.Head, live.Len, live.RetryIn)
	}
}

// TestDeleteStreamDuringRefitStaysDeleted parks an append's refit inside
// the fitter and deletes the stream meanwhile. When the refit finishes the
// append must not persist the stream again: the reboot finds none.
func TestDeleteStreamDuringRefitStaysDeleted(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	fit := core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 3,
		Progress: func(core.FitEvent) { once.Do(func() { close(parked); <-release }) }}
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir, StreamFit: fit})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	series := streamSeries(80)
	appended := make(chan error, 1)
	go func() {
		_, err := r.AppendStream(ctx, "s", series, AppendOptions{RefitEvery: 30})
		appended <- err
	}()
	<-parked
	deleted := make(chan error, 1)
	go func() { deleted <- r.DeleteStream("s") }()
	// A delete that ignores the refit in flight returns at once; one that
	// waits for it cannot return before the release.
	var delErr error
	returned := false
	select {
	case delErr = <-deleted:
		returned = true
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	if !returned {
		delErr = <-deleted
	}
	if delErr != nil {
		t.Fatal(delErr)
	}
	r2, _ := reopenClean(t, dir)
	if got := r2.ListStreams(); len(got) != 0 {
		t.Fatalf("deleted stream came back after the reboot: %+v", got)
	}
	if des, _ := os.ReadDir(filepath.Join(dir, streamsDir)); len(des) != 0 {
		t.Fatalf("deleted stream left files: %v", des)
	}
	// The id is free again: the next append creates a new stream.
	st, err := r.AppendStream(ctx, "s", series[:10], AppendOptions{})
	if err != nil || st.Len != 10 || st.Refits != 1 {
		t.Fatalf("append after delete = %+v, %v; want a new 10-tick stream", st, err)
	}
}

// TestConcurrentStreamAppendDelete races appends against deletes over a
// few shared ids with a data dir. However they interleave, the disk must
// hold what memory holds: a clean reopen restores exactly the streams the
// live registry has, each bit for bit.
func TestConcurrentStreamAppendDelete(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir, RefitEvery: 1000,
		StreamFit: core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 3}})
	if err != nil {
		t.Fatal(err)
	}
	series := streamSeries(200)
	ids := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				id := ids[(w+i)%len(ids)]
				if w == 3 && i%5 == 0 {
					if err := r.DeleteStream(id); err != nil && !errors.Is(err, ErrNotFound) {
						t.Error(err)
					}
					continue
				}
				_, err := r.AppendStream(context.Background(), id, series[2*i:2*i+2], AppendOptions{})
				if err != nil && !errors.Is(err, ErrNotFound) {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	r2, _ := reopenClean(t, dir)
	live, restored := r.ListStreams(), r2.ListStreams()
	if len(live) != len(restored) {
		t.Fatalf("live streams %+v, restored %+v", live, restored)
	}
	for i, st := range live {
		if restored[i].ID != st.ID {
			t.Fatalf("live streams %+v, restored %+v", live, restored)
		}
		sameState(t, "stream "+st.ID, liveState(t, r2, st.ID), liveState(t, r, st.ID))
	}
}

// countStreamAppendOps measures the filesystem operations one persisted
// 20-tick append with opts performs, so the fault sweep can schedule a
// fault at every position.
func countStreamAppendOps(t *testing.T, fit core.FitOptions, opts AppendOptions) int {
	t.Helper()
	in := faultfs.NewInjector(nil)
	r, err := Open(Options{DataDir: t.TempDir(), FS: in, StreamFit: fit})
	if err != nil {
		t.Fatal(err)
	}
	series := streamSeries(80)
	if _, err := r.AppendStream(context.Background(), "s", series[:60], AppendOptions{RefitEvery: 30}); err != nil {
		t.Fatal(err)
	}
	in.Reset()
	if _, err := r.AppendStream(context.Background(), "s", series[60:], opts); err != nil {
		t.Fatal(err)
	}
	return injectedOps(in)
}

// TestChaosStreamLogTornTail truncates the segment at every byte offset of
// its last record — what a crash mid-write leaves — and reboots: every
// earlier record replays, the torn one is dropped, and nothing counts as
// corrupt.
func TestChaosStreamLogTornTail(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir,
		StreamFit: core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 3}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	series := streamSeries(80)
	if _, err := r.AppendStream(ctx, "s", series[:60], AppendOptions{RefitEvery: 1000}); err != nil {
		t.Fatal(err)
	}
	for i := 60; i < 70; i++ {
		if _, err := r.AppendStream(ctx, "s", series[i:i+1], AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	before := liveState(t, r, "s")
	if _, err := r.AppendStream(ctx, "s", series[70:73], AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	after := liveState(t, r, "s")
	path := r.streams["s"].seg.f.Name()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := 10*tickRecordSize(1) + tickRecordSize(3); int64(len(data)) != want {
		t.Fatalf("segment holds %d bytes, want %d", len(data), want)
	}
	for cut := len(data) - int(tickRecordSize(3)); cut <= len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r2, _ := reopenClean(t, dir)
		want := before
		if cut == len(data) {
			want = after
		}
		sameState(t, fmt.Sprintf("segment cut at %d of %d bytes", cut, len(data)), liveState(t, r2, "s"), want)
	}
}

// TestChaosStreamLogCorruptSegmentQuarantined flips a byte inside a record
// that has good records after it: damage, not a torn tail. The boot
// quarantines the segment, counts it, keeps the records before the damage
// and compacts them, so the next boot is clean.
func TestChaosStreamLogCorruptSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir,
		StreamFit: core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 3}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	series := streamSeries(80)
	if _, err := r.AppendStream(ctx, "s", series[:60], AppendOptions{RefitEvery: 1000}); err != nil {
		t.Fatal(err)
	}
	var states []core.StreamState
	for i := 60; i < 65; i++ {
		if _, err := r.AppendStream(ctx, "s", series[i:i+1], AppendOptions{}); err != nil {
			t.Fatal(err)
		}
		states = append(states, liveState(t, r, "s"))
	}
	path := r.streams["s"].seg.f.Name()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[2*tickRecordSize(1)+tickHeader+3] ^= 0x40 // a value bit of the third record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	met := NewMetricsOn(obs.NewRegistry())
	r2, err := Open(Options{DataDir: dir, Metrics: met})
	if err != nil {
		t.Fatalf("corrupt segment blocked boot: %v", err)
	}
	if got := met.corrupt.Value(); got != 1 {
		t.Fatalf("registry_corrupt_total = %v, want 1", got)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt segment not quarantined: %v", err)
	}
	sameState(t, "boot over a corrupt segment", liveState(t, r2, "s"), states[1])
	if got := compactions(met, compactBoot); got != 1 {
		t.Fatalf("recovered state compacted %v times at boot, want 1", got)
	}
	r3, _ := reopenClean(t, dir)
	sameState(t, "boot after the recovery", liveState(t, r3, "s"), states[1])
}

// TestLegacyStreamSnapshotBoots: a data dir written before the tick log —
// snapshots naming no segment — boots as it did; the first append
// compacts it into the new layout, and later appends replay on top.
func TestLegacyStreamSnapshotBoots(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, streamsDir), 0o755); err != nil {
		t.Fatal(err)
	}
	legacy := []byte(`{"refit_every":30,"seq":[1,2,null,3],"fitted":false,"since_refit":4,"refits":0}`)
	if err := os.WriteFile(filepath.Join(dir, streamsDir, "old.json"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	met := NewMetricsOn(obs.NewRegistry())
	r, err := Open(Options{DataDir: dir, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := r.StreamStatusFor("old"); err != nil || st.Len != 4 || st.Mode != "batch" {
		t.Fatalf("legacy stream = %+v, %v", st, err)
	}
	for _, v := range []float64{4, 5} {
		if _, err := r.AppendStream(context.Background(), "old", []float64{v}, AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := compactions(met, compactBoot); got != 1 {
		t.Fatalf("boot compactions = %v, want 1", got)
	}
	r2, _ := reopenClean(t, dir)
	sameState(t, "legacy stream after two appends", liveState(t, r2, "old"), liveState(t, r, "old"))
}

// TestStreamCompactionReasons walks a stream through every compaction
// trigger and checks stream_compactions_total{reason} and the span's
// compacted attribute for each append.
func TestStreamCompactionReasons(t *testing.T) {
	dir := t.TempDir()
	met := NewMetricsOn(obs.NewRegistry())
	rec := trace.NewRecorder(trace.RecorderOptions{})
	in := faultfs.NewInjector(nil)
	fit := core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 3}
	r, err := Open(Options{DataDir: dir, FS: in, Metrics: met, StreamFit: fit, Tracer: trace.NewTracer(rec)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	series := streamSeries(400)
	next := 0
	reasons := []string{compactCreate, compactOptions, compactRefit, compactSize, compactBoot, compactWriteError}
	// step appends n ticks to r and returns the compaction it made ("" for
	// none), checking that the span's compacted attribute agrees.
	step := func(r *Registry, m *Metrics, n int, opts AppendOptions) string {
		t.Helper()
		before := map[string]float64{}
		for _, reason := range reasons {
			before[reason] = compactions(m, reason)
		}
		ctx, span := trace.NewTracer(rec).Start(ctx, "test")
		if _, err := r.AppendStream(ctx, "s", series[next:next+n], opts); err != nil {
			t.Fatal(err)
		}
		span.End()
		next += n
		got := ""
		for _, reason := range reasons {
			switch d := compactions(m, reason) - before[reason]; {
			case d == 1 && got == "":
				got = reason
			case d != 0:
				t.Fatalf("append up to tick %d: %s compactions +%v", next, reason, d)
			}
		}
		td, _ := rec.Get(span.Context().TraceID.String())
		seen := false
		for _, sd := range td.Spans {
			for _, a := range sd.Attrs {
				if sd.Name == "stream.append" && a.Key == "compacted" {
					seen = true
					if a.Value != (got != "") {
						t.Fatalf("append up to tick %d: span compacted = %v after compaction %q", next, a.Value, got)
					}
				}
			}
		}
		if !seen {
			t.Fatalf("append up to tick %d: no compacted attribute on the stream.append span", next)
		}
		return got
	}
	expect := func(got, want string) {
		t.Helper()
		if got != want {
			t.Fatalf("append up to tick %d compacted for %q, want %q", next, got, want)
		}
	}
	expect(step(r, met, 4, AppendOptions{RefitEvery: 1000}), compactCreate) // too short to fit
	expect(step(r, met, 1, AppendOptions{}), "")
	expect(step(r, met, 1, AppendOptions{Retention: 1000}), compactOptions)
	expect(step(r, met, 1, AppendOptions{Retention: 1000, RefitEvery: 1000}), "") // nothing changes
	expect(step(r, met, 13, AppendOptions{}), compactRefit)                       // the first fit
	for got := ""; got == ""; {
		if next >= 300 {
			t.Fatal("the segment never reached its snapshot's size")
		}
		if got = step(r, met, 1, AppendOptions{}); got != "" {
			expect(got, compactSize)
		}
	}
	in.FailNth(faultfs.OpSync, 1, nil)
	if _, err := r.AppendStream(ctx, "s", series[next:next+1], AppendOptions{}); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append through a failed fsync = %v, want the injected fault", err)
	}
	next++
	expect(step(r, met, 1, AppendOptions{}), compactWriteError)
	expect(step(r, met, 1, AppendOptions{}), "")
	refits := compactions(met, compactRefit)
	if _, err := r.RefitStream(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	if got := compactions(met, compactRefit) - refits; got != 1 {
		t.Fatalf("forced refit compacted %v times, want 1", got)
	}

	met2 := NewMetricsOn(obs.NewRegistry())
	r2, err := Open(Options{DataDir: dir, Metrics: met2, StreamFit: fit, Tracer: trace.NewTracer(rec)})
	if err != nil {
		t.Fatal(err)
	}
	expect(step(r2, met2, 1, AppendOptions{}), compactBoot)
	expect(step(r2, met2, 1, AppendOptions{}), "")
}

// TestPersistedAppendSyncedBeforeAck checks with the injector's counters
// that every acknowledged append has fsynced what makes it durable before
// AppendStream returns: its record, or on a compacting append the new
// snapshot and the directory that names it and its segment.
func TestPersistedAppendSyncedBeforeAck(t *testing.T) {
	in := faultfs.NewInjector(nil)
	r, err := Open(Options{DataDir: t.TempDir(), FS: in,
		StreamFit: core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 3}})
	if err != nil {
		t.Fatal(err)
	}
	series := streamSeries(300)
	logged, compacted := 0, 0
	for i := 0; i < len(series); i++ {
		opts := AppendOptions{}
		if i%50 == 0 {
			opts.RefitEvery = 40
		}
		creates, writes := in.Count(faultfs.OpCreate), in.Count(faultfs.OpWrite)
		syncs, dirSyncs := in.Count(faultfs.OpSync), in.Count(faultfs.OpSyncDir)
		if _, err := r.AppendStream(context.Background(), "s", series[i:i+1], opts); err != nil {
			t.Fatal(err)
		}
		d := func(op string, before int) int { return in.Count(op) - before }
		switch {
		case d(faultfs.OpCreate, creates) == 0 && d(faultfs.OpWrite, writes) == 1 && d(faultfs.OpSync, syncs) == 1:
			logged++
		case d(faultfs.OpCreate, creates) == 2 && d(faultfs.OpSync, syncs) == 1 && d(faultfs.OpSyncDir, dirSyncs) == 1:
			compacted++
		default:
			t.Fatalf("append %d returned after create %d, write %d, sync %d, syncdir %d", i,
				d(faultfs.OpCreate, creates), d(faultfs.OpWrite, writes), d(faultfs.OpSync, syncs),
				d(faultfs.OpSyncDir, dirSyncs))
		}
	}
	if logged == 0 || compacted == 0 {
		t.Fatalf("%d logged and %d compacting appends; want both", logged, compacted)
	}
}

// TestPersistedAppendCostFlat is the O(1) gate for persisted appends: at
// retention 500 and at 5000, steady single-tick appends between
// compactions write one 28-byte record each and allocate the same count.
func TestPersistedAppendCostFlat(t *testing.T) {
	const runs = 200
	measure := func(retention int) (bytesPerAppend, allocs float64) {
		r, err := Open(Options{DataDir: t.TempDir(),
			StreamFit: core.FitOptions{DisableGrowth: true, DisableShocks: true, Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		series := streamSeries(retention + runs + 1)
		// The creating append compacts: the runs start on an empty segment.
		if _, err := r.AppendStream(ctx, "s", series[:retention],
			AppendOptions{RefitEvery: 1 << 30, Retention: retention}); err != nil {
			t.Fatal(err)
		}
		seg := r.streams["s"].seg.f.Name()
		next := retention
		allocs = testing.AllocsPerRun(runs, func() {
			if _, err := r.AppendStream(ctx, "s", series[next:next+1], AppendOptions{}); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if got := r.streams["s"].seg.f.Name(); got != seg {
			t.Fatalf("retention %d: a compaction fell among the measured appends", retention)
		}
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		return float64(fi.Size()) / (runs + 1), allocs
	}
	b500, a500 := measure(500)
	b5000, a5000 := measure(5000)
	t.Logf("bytes/append %.1f vs %.1f, allocs/append %.0f vs %.0f at retention 500 vs 5000", b500, b5000, a500, a5000)
	if b500 != b5000 || b500 > 64 {
		t.Fatalf("persisted append writes %.1f B at retention 500 and %.1f B at 5000; want the same, at most 64", b500, b5000)
	}
	if a500 != a5000 {
		t.Fatalf("persisted append allocates %.0f objects at retention 500 and %.0f at 5000; want the same", a500, a5000)
	}
}
