package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dspot/internal/core"
	"dspot/internal/obs"
)

// TestAppendStreamHonorsCadenceAndMode pins the AppendStream configuration
// contract: a positive refit_every is honored on EXISTING streams (it used
// to apply only at creation), a mode switch takes effect in place, both are
// reported in StreamStatus, and an unknown mode is rejected up front.
func TestAppendStreamHonorsCadenceAndMode(t *testing.T) {
	r, err := Open(Options{StreamFit: core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 3}})
	if err != nil {
		t.Fatal(err)
	}
	series := streamSeries(120)
	st, err := r.AppendStream(context.Background(), "s", series[:60], AppendOptions{RefitEvery: 30})
	if err != nil {
		t.Fatal(err)
	}
	if st.RefitEvery != 30 || st.Mode != "batch" {
		t.Fatalf("creation status = %+v, want refit_every 30 mode batch", st)
	}

	st, err = r.AppendStream(context.Background(), "s", series[60:70], AppendOptions{RefitEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	if st.RefitEvery != 7 {
		t.Fatalf("refit_every change on existing stream ignored: %+v", st)
	}

	st, err = r.AppendStream(context.Background(), "s", series[70:80], AppendOptions{Mode: "incremental"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "incremental" || st.RefitEvery != 7 {
		t.Fatalf("mode switch on existing stream ignored: %+v", st)
	}
	if st.DebtLimit <= 0 {
		t.Fatalf("incremental status should expose the debt limit: %+v", st)
	}

	if _, err := r.AppendStream(context.Background(), "s", series[80:81], AppendOptions{Mode: "nope"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown mode accepted: %v", err)
	}
}

// TestIncrementalStreamPersistRestore proves an incremental stream's
// snapshot round-trips through disk: the mode, pending refit debt and the
// projected shock strengths all survive a restart, and the restored stream
// forecasts identically.
func TestIncrementalStreamPersistRestore(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir,
		StreamFit:         core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 3},
		StreamMode:        "incremental",
		StreamIncremental: core.IncrementalConfig{TailWindow: 26, DebtLimit: 1e9}}
	r, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	series := streamSeries(160)
	if _, err := r.AppendStream(context.Background(), "inc", series[:100], AppendOptions{RefitEvery: 30}); err != nil {
		t.Fatal(err)
	}
	st, err := r.AppendStream(context.Background(), "inc", series[100:140], AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "incremental" || !st.Ready {
		t.Fatalf("status = %+v, want ready incremental", st)
	}
	if st.Debt <= 0 {
		t.Fatalf("incremental appends past the fit should accrue debt: %+v", st)
	}
	fc, err := r.StreamForecast("inc", 20)
	if err != nil {
		t.Fatal(err)
	}

	r2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := r2.StreamStatusFor("inc")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Mode != st.Mode || st2.Debt != st.Debt || st2.Len != st.Len || st2.RefitEvery != st.RefitEvery {
		t.Fatalf("restored status %+v != live %+v", st2, st)
	}
	fc2, err := r2.StreamForecast("inc", 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fc {
		if fc[i] != fc2[i] {
			t.Fatalf("incremental forecast diverges after restart at %d: %v != %v", i, fc[i], fc2[i])
		}
	}
	// The restored stream keeps maintaining incrementally.
	st3, err := r2.AppendStream(context.Background(), "inc", series[140:], AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Len != 160 || st3.Mode != "incremental" {
		t.Fatalf("post-restart append status = %+v", st3)
	}
}

// TestLegacyStreamSnapshotDecodes pins back-compat: snapshots written before
// incremental maintenance existed carry none of the new fields and must
// decode to a plain batch stream with no pending debt.
func TestLegacyStreamSnapshotDecodes(t *testing.T) {
	legacy := []byte(`{"refit_every":30,"seq":[1,2,null,3],"fitted":false,"since_refit":4,"refits":0}`)
	state, refits, log, err := decodeStreamState(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if refits != 0 || log != "" || state.RefitEvery != 30 || len(state.Seq) != 4 {
		t.Fatalf("legacy decode: refits=%d state=%+v", refits, state)
	}
	if state.Mode != core.RefitBatch || state.Debt != 0 || state.Future != nil {
		t.Fatalf("legacy snapshot must restore as a clean batch stream: %+v", state)
	}
	if state.LastScan != -1 {
		t.Fatalf("legacy snapshot LastScan = %d, want -1 (no peak examined)", state.LastScan)
	}
	s := core.RestoreStream(core.FitOptions{}, state)
	if s.Mode() != core.RefitBatch || s.Len() != 4 {
		t.Fatalf("restored legacy stream: mode %v len %d", s.Mode(), s.Len())
	}
}

// TestBatchStreamStatusReportsCadence: a batch stream's status says when
// its next refit fires. Twenty ticks after a refit at refit_every 30, debt
// counts those ticks and debt_limit is the cadence, in StreamStatus and
// ListStreams alike.
func TestBatchStreamStatusReportsCadence(t *testing.T) {
	r, err := Open(Options{StreamFit: core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 3}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	series := streamSeries(100)
	st, err := r.AppendStream(ctx, "s", series[:60], AppendOptions{RefitEvery: 30})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Refitted || st.Mode != "batch" {
		t.Fatalf("creation status = %+v, want a refitted batch stream", st)
	}
	for _, v := range series[60:80] {
		if st, err = r.AppendStream(ctx, "s", []float64{v}, AppendOptions{}); err != nil {
			t.Fatal(err)
		}
		if st.Refitted {
			t.Fatalf("refit before the cadence: %+v", st)
		}
	}
	got, err := r.StreamStatusFor("s")
	if err != nil {
		t.Fatal(err)
	}
	if got.Debt != 20 || got.DebtLimit != 30 {
		t.Fatalf("status = %+v, want debt 20 and debt_limit 30", got)
	}
	if list := r.ListStreams(); len(list) != 1 || list[0] != got {
		t.Fatalf("ListStreams = %+v, want [%+v]", list, got)
	}
}

// legacyBatchSnapshot encodes a fitted batch stream the way snapshots were
// written before every stream kept a checkpoint: since_refit, no mode, no
// projected strengths. Its fit covers the first fitN ticks of seq with a
// cyclic shock whose strength row stops at the fifth occurrence (the sixth
// starts at 104), so a window longer than 104 holds occurrences the row
// lacks. log, when non-empty, names the snapshot's tick-log segment.
func legacyBatchSnapshot(t *testing.T, seq []float64, fitN, every, since int, log string) []byte {
	t.Helper()
	scale := 0.0
	for _, v := range seq[:fitN] {
		scale = math.Max(scale, v)
	}
	res := core.GlobalFitResult{
		Params: core.KeywordParams{N: 2, Beta: 0.7, Delta: 0.4, Gamma: 0.3, I0: 0.05, TEta: core.NoGrowth},
		Shocks: []core.Shock{{Keyword: 0, Period: 20, Start: 4, Width: 2, Strength: []float64{6, 6, 6, 6, 6}}},
		Scale:  scale,
	}
	if occ := res.Shocks[0].Occurrences(len(seq)); occ <= len(res.Shocks[0].Strength) {
		t.Fatalf("fixture: window holds %d occurrences, want more than the row's %d", occ, len(res.Shocks[0].Strength))
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	seqJSON, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	logField := ""
	if log != "" {
		logField = fmt.Sprintf(`,"log":%q`, log)
	}
	return []byte(fmt.Sprintf(`{"refit_every":%d,"seq":%s,"fitted":true,"result":%s,"since_refit":%d,"refits":1,"tail_window":104%s}`,
		every, seqJSON, resJSON, since, logField))
}

// TestLegacyBatchSnapshotResumesCadence: a fitted batch snapshot written
// before every stream kept a checkpoint — since_refit, no mode, no
// projected strengths, and a cyclic shock whose strength row stops short
// of the occurrences its window holds — restores, validates, forecasts
// like the whole-window oracle, boots, and refits after exactly
// RefitEvery − since_refit more ticks at jitter 0.
func TestLegacyBatchSnapshotResumesCadence(t *testing.T) {
	const fitN, since, every = 100, 6, 30
	series := streamSeries(fitN + every)
	legacy := legacyBatchSnapshot(t, series[:fitN+since], fitN, every, since, "")

	state, _, _, err := decodeStreamState(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if state.Mode != core.RefitBatch || state.Future != nil || !state.Fitted {
		t.Fatalf("legacy snapshot decoded as %+v", state)
	}
	fit := core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 3}
	s := core.RestoreStream(fit, state)
	if s.Debt() != since || s.DebtLimit() != every {
		t.Fatalf("restored debt %v of %v, want %d of %d", s.Debt(), s.DebtLimit(), since, every)
	}
	check := func(what string) {
		t.Helper()
		m := s.Model()
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for _, h := range []int{1, 13, 52} {
			got, want := s.Forecast(h), m.ForecastGlobal(0, h)
			if p, diff := bitDiff(reflect.ValueOf(got), reflect.ValueOf(want)); diff {
				t.Fatalf("%s: Forecast(%d) differs from the oracle at %s", what, h, p)
			}
		}
	}
	check("restored")

	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, streamsDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, streamsDir, "old.json"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{DataDir: dir, StreamFit: fit})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.StreamStatusFor("old")
	if err != nil || !st.Ready || st.Mode != "batch" || st.Debt != since || st.DebtLimit != every {
		t.Fatalf("booted legacy stream = %+v, %v", st, err)
	}
	booted, err := r.StreamForecast("old", 13)
	if err != nil {
		t.Fatal(err)
	}
	if p, diff := bitDiff(reflect.ValueOf(booted), reflect.ValueOf(s.Forecast(13))); diff {
		t.Fatalf("booted Forecast(13) differs from the restored one at %s", p)
	}

	for i, v := range series[fitN+since:] {
		refitted, err := s.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("tick %d", fitN+since+i))
		if refitted {
			if i+1 != every-since {
				t.Fatalf("refit after %d ticks, want %d", i+1, every-since)
			}
			return
		}
	}
	t.Fatalf("no refit within %d ticks", every-since)
}

// TestLegacyBatchLogReplaysAtItsCadence boots a batch snapshot and tick-log
// segment in the format written before every stream kept a checkpoint. A
// batch stream then refit at since_refit ≥ RefitEvery + ⌊frac·RefitEvery/2⌋
// and logged no append that attempted a refit, so its segment can end just
// short of that trigger, past frac·RefitEvery/4. Booted at the registry's
// own jitter, every record must replay, nothing is quarantined, and the
// refit lands on the old trigger tick.
func TestLegacyBatchLogReplaysAtItsCadence(t *testing.T) {
	const fitN, since, every = 100, 6, 26
	id := ""
	for i := 0; id == ""; i++ {
		if c := fmt.Sprintf("old%d", i); jitterFor(c) >= 0.8 {
			id = c
		}
	}
	trigger := every + int(jitterFor(id)*every/2)
	if quarter := every + jitterFor(id)*every/4; float64(trigger-2) < quarter {
		t.Fatalf("fixture: segment end %d not past the quarter trigger %v", trigger-2, quarter)
	}
	series := streamSeries(fitN + trigger + 4)
	logged := fitN + trigger - 2 // the segment ends at debt trigger-2
	seg := id + "@legacy.log"
	var records []byte
	for at := fitN + since; at < logged; at++ {
		records = appendTickRecord(records, int64(at), series[at:at+1])
	}

	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, streamsDir), 0o755); err != nil {
		t.Fatal(err)
	}
	snap := legacyBatchSnapshot(t, series[:fitN+since], fitN, every, since, seg)
	if err := os.WriteFile(filepath.Join(dir, streamsDir, id+".json"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, streamsDir, seg), records, 0o644); err != nil {
		t.Fatal(err)
	}
	met := NewMetricsOn(obs.NewRegistry())
	fit := core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 3}
	r, err := Open(Options{DataDir: dir, StreamFit: fit, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	if met.corrupt.Value() != 0 {
		t.Fatalf("registry_corrupt_total = %v, want 0", met.corrupt.Value())
	}
	if q, _ := filepath.Glob(filepath.Join(dir, streamsDir, "*.corrupt")); len(q) != 0 {
		t.Fatalf("quarantined %v", q)
	}
	st, err := r.StreamStatusFor(id)
	if err != nil || st.Len != logged || st.Debt != float64(trigger-2) || st.DebtLimit != every {
		t.Fatalf("booted stream = %+v, %v; want len %d and debt %d of %d", st, err, logged, trigger-2, every)
	}

	ctx := context.Background()
	for i, v := range series[logged:] {
		st, err := r.AppendStream(ctx, id, []float64{v}, AppendOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Refitted {
			if debt := trigger - 2 + i + 1; debt != trigger {
				t.Fatalf("refit at debt %d, want the old trigger %d", debt, trigger)
			}
			return
		}
	}
	t.Fatalf("no refit by debt %d", trigger+4-2)
}

// TestStreamRefitOnDemand covers the forced-consolidation endpoint's
// registry half: RefitStream fires a full refit regardless of pending debt
// and clears it.
func TestStreamRefitOnDemand(t *testing.T) {
	r, err := Open(Options{
		StreamFit:         core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 3},
		StreamMode:        "incremental",
		StreamIncremental: core.IncrementalConfig{TailWindow: 26, DebtLimit: 1e9}})
	if err != nil {
		t.Fatal(err)
	}
	series := streamSeries(140)
	if _, err := r.AppendStream(context.Background(), "s", series[:100], AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	st, err := r.AppendStream(context.Background(), "s", series[100:], AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Debt <= 0 {
		t.Fatalf("scenario should carry pending debt, got %+v", st)
	}
	st, err = r.RefitStream(context.Background(), "s")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Refitted || st.Debt != 0 {
		t.Fatalf("on-demand refit status = %+v, want refitted with debt 0", st)
	}
	if _, err := r.RefitStream(context.Background(), "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown stream refit = %v", err)
	}
}
