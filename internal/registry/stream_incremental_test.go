package registry

import (
	"context"
	"errors"
	"testing"

	"dspot/internal/core"
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
