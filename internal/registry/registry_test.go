package registry

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dspot/internal/core"
	"dspot/internal/dataset"
	"dspot/internal/engine"
	"dspot/internal/obs"
	"dspot/internal/tensor"
)

// testModel builds a small valid model whose forecast depends on seed, so
// two distinct models are distinguishable end to end.
func testModel(seed int) *engine.DspotModel {
	return engine.NewDspotModel(&core.Model{
		Keywords:  []string{"kw"},
		Locations: []string{"all"},
		Ticks:     60,
		Global: []core.KeywordParams{{
			N: 1 + float64(seed), Beta: 0.6, Delta: 0.4, Gamma: 0.3,
			I0: 0.01, TEta: core.NoGrowth,
		}},
		Shocks: []core.Shock{{
			Keyword: 0, Period: 20, Start: 5, Width: 2,
			Strength: []float64{4, 4, 4},
		}},
		Scale: []float64{1},
	})
}

// coreOf unwraps a Δ-SPOT engine model for field-level assertions.
func coreOf(t *testing.T, m engine.Model) *core.Model {
	t.Helper()
	dm, ok := m.(*engine.DspotModel)
	if !ok {
		t.Fatalf("model is a %T, want *engine.DspotModel", m)
	}
	return dm.M
}

// modelDiskPath reads the manifest to find where id's bytes live on disk,
// so tests tamper with the right file whatever the versioned layout names it.
func modelDiskPath(t *testing.T, dir, id string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	mf, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range mf.Models {
		if e.ID == id {
			return filepath.Join(dir, filepath.FromSlash(e.File))
		}
	}
	t.Fatalf("manifest has no entry for %q", id)
	return ""
}

func TestValidateID(t *testing.T) {
	for _, good := range []string{"a", "model-1", "A.b_c", "x9"} {
		if err := ValidateID(good); err != nil {
			t.Errorf("ValidateID(%q) = %v", good, err)
		}
	}
	long := ""
	for i := 0; i < 65; i++ {
		long += "a"
	}
	for _, bad := range []string{"", ".hidden", "a/b", "a\\b", "a b", "é", long, ".."} {
		if err := ValidateID(bad); !errors.Is(err, ErrBadID) {
			t.Errorf("ValidateID(%q) = %v, want ErrBadID", bad, err)
		}
	}
}

func TestPutGetDeleteMemory(t *testing.T) {
	r, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(nope) = %v", err)
	}
	info, err := r.Put("m1", testModel(1))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Keywords != 1 || info.Ticks != 60 || info.Engine != engine.Default {
		t.Fatalf("Put info = %+v", info)
	}
	info, err = r.Put("m1", testModel(2))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Fatalf("replacing Put version = %d, want 2", info.Version)
	}
	m, err := r.Get("m1")
	if err != nil {
		t.Fatal(err)
	}
	if n := coreOf(t, m).Global[0].N; n != 3 {
		t.Fatalf("Get returned stale model: N = %g", n)
	}
	if n := r.Len(); n != 1 {
		t.Fatalf("Len = %d", n)
	}
	if err := r.Delete("m1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("m1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Delete = %v", err)
	}
	// Invalid ids and invalid models are rejected before touching state.
	if _, err := r.Put("../evil", testModel(1)); !errors.Is(err, ErrBadID) {
		t.Fatalf("bad id accepted: %v", err)
	}
	bad := testModel(1)
	bad.M.Global[0].Beta = math.NaN()
	if _, err := r.Put("bad", bad); err == nil {
		t.Fatal("invalid model accepted")
	}
}

// The acceptance-criteria durability path at registry level: Put models,
// reopen the directory, serve identical content from the reloaded store.
func TestRestartDurability(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := testModel(3)
	if _, err := r.Put("keep", want); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("drop", testModel(4)); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("drop"); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Len(); got != 1 {
		t.Fatalf("reloaded registry has %d models, want 1", got)
	}
	if _, err := r2.Get("drop"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted model survived restart: %v", err)
	}
	info, err := r2.Stat("keep")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Loaded {
		t.Fatalf("reloaded Stat = %+v (models must load lazily)", info)
	}
	got, err := r2.Get("keep")
	if err != nil {
		t.Fatal(err)
	}
	wf, gf := want.M.ForecastGlobal(0, 20), coreOf(t, got).ForecastGlobal(0, 20)
	for i := range wf {
		if wf[i] != gf[i] {
			t.Fatalf("forecast diverges after restart at %d: %g != %g", i, gf[i], wf[i])
		}
	}
}

// TestLegacyManifestLoadsAsDspot seeds a data directory in the pre-engine
// on-disk format — raw dataset model JSON, manifest entries without an
// "engine" field — and checks the registry opens it, reports the entries as
// Δ-SPOT models, and serves them through the engine-typed Get.
func TestLegacyManifestLoadsAsDspot(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "models"), 0o755); err != nil {
		t.Fatal(err)
	}
	want := testModel(5)
	var buf bytes.Buffer
	if err := dataset.WriteModel(&buf, want.M); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	if err := os.WriteFile(filepath.Join(dir, "models", "old@v1.json"), body, 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := fmt.Sprintf(`{
  "version": 1,
  "models": [
    {
      "id": "old",
      "version": 1,
      "file": "models/old@v1.json",
      "checksum": %q,
      "created_unix": 1700000000,
      "updated_unix": 1700000000,
      "keywords": 1,
      "locations": 1,
      "ticks": 60
    }
  ]
}`, checksumOf(body))
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	info, err := r.Stat("old")
	if err != nil {
		t.Fatal(err)
	}
	if info.Engine != engine.Default {
		t.Fatalf("legacy entry Engine = %q, want %q", info.Engine, engine.Default)
	}
	m, err := r.Get("old")
	if err != nil {
		t.Fatal(err)
	}
	if m.EngineName() != engine.Default {
		t.Fatalf("legacy model EngineName = %q", m.EngineName())
	}
	wf, gf := want.M.ForecastGlobal(0, 10), coreOf(t, m).ForecastGlobal(0, 10)
	for i := range wf {
		if wf[i] != gf[i] {
			t.Fatalf("legacy model forecast diverges at %d", i)
		}
	}
	// An overwriting Put upgrades the entry to the engine-stamped format.
	if _, err := r.Put("old", testModel(6)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	mf, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Models) != 1 || mf.Models[0].Engine != engine.Default {
		t.Fatalf("rewritten manifest = %+v, want engine-stamped entry", mf.Models)
	}
}

func TestManifestEntryWithMissingFileDropped(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("a", testModel(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("b", testModel(2)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(modelDiskPath(t, dir, "a")); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("entry with missing file not dropped: %v", err)
	}
	if _, err := r2.Get("b"); err != nil {
		t.Fatalf("surviving model unreadable: %v", err)
	}
}

func TestCorruptManifestFailsOpen(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{DataDir: dir}); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

func TestLRUEvictionAndReload(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	r, err := Open(Options{DataDir: dir, MaxLoaded: 2, Metrics: NewMetricsOn(reg)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := r.Put(fmt.Sprintf("m%d", i), testModel(i)); err != nil {
			t.Fatal(err)
		}
	}
	loaded := 0
	for _, info := range r.List() {
		if info.Loaded {
			loaded++
		}
	}
	if loaded != 2 {
		t.Fatalf("%d models loaded, want 2 (LRU bound)", loaded)
	}
	// The oldest puts were evicted; Get transparently reloads from disk and
	// in turn evicts the now-oldest resident.
	m, err := r.Get("m0")
	if err != nil {
		t.Fatal(err)
	}
	if n := coreOf(t, m).Global[0].N; n != 1 {
		t.Fatalf("reloaded m0 has N = %g", n)
	}
}

// Memory-only registries must never evict — there is nowhere to reload from.
func TestNoEvictionWithoutDataDir(t *testing.T) {
	r, err := Open(Options{MaxLoaded: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Put(fmt.Sprintf("m%d", i), testModel(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Get(fmt.Sprintf("m%d", i)); err != nil {
			t.Fatalf("memory-only model m%d lost: %v", i, err)
		}
	}
}

func TestConcurrentPutGetListDelete(t *testing.T) {
	r, err := Open(Options{DataDir: t.TempDir(), MaxLoaded: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("m%d", w%4)
			for i := 0; i < 10; i++ {
				if _, err := r.Put(id, testModel(w)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, err := r.Get(id); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("Get: %v", err)
					return
				}
				r.List()
				if i%5 == 4 {
					_ = r.Delete(id) // races with other writers: ErrNotFound ok
				}
			}
		}(w)
	}
	wg.Wait()
}

// streamSeries synthesises a cheap-to-fit series with one periodic spike.
func streamSeries(n int) []float64 {
	p := core.KeywordParams{N: 2, Beta: 0.7, Delta: 0.4, Gamma: 0.3, I0: 0.05,
		TEta: core.NoGrowth}
	shock := core.Shock{Keyword: 0, Period: 20, Start: 4, Width: 2}
	occ := shock.Occurrences(n)
	shock.Strength = make([]float64, occ)
	for i := range shock.Strength {
		shock.Strength[i] = 6
	}
	m := &core.Model{Keywords: []string{"s"}, Ticks: n,
		Global: []core.KeywordParams{p}, Shocks: []core.Shock{shock}}
	return m.SimulateGlobal(0, n)
}

func TestStreamAppendPersistRestore(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir,
		StreamFit: core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 3}}
	r, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	series := streamSeries(80)
	st, err := r.AppendStream(context.Background(), "ticker", series[:60], AppendOptions{RefitEvery: 30})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Refitted || !st.Ready || st.Len != 60 {
		t.Fatalf("first append status = %+v", st)
	}
	fc, err := r.StreamForecast("ticker", 10)
	if err != nil || len(fc) != 10 {
		t.Fatalf("forecast = %v, %v", fc, err)
	}
	if _, err := r.StreamForecast("ghost", 10); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown stream forecast = %v", err)
	}

	// Restart: the stream resumes with identical state and keeps accepting.
	r2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := r2.StreamStatusFor("ticker")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len != 60 || !st2.Ready || st2.Refits != st.Refits {
		t.Fatalf("restored stream status = %+v, want len 60 ready refits=%d", st2, st.Refits)
	}
	fc2, err := r2.StreamForecast("ticker", 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fc {
		if fc[i] != fc2[i] {
			t.Fatalf("stream forecast diverges after restart at %d", i)
		}
	}
	if _, err := r2.AppendStream(context.Background(), "ticker", series[60:], AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	if got, _ := r2.StreamStatusFor("ticker"); got.Len != 80 {
		t.Fatalf("post-restart append Len = %d", got.Len)
	}
	m, err := r2.StreamModel("ticker")
	if err != nil || m == nil {
		t.Fatalf("stream model = %v, %v", m, err)
	}

	if err := r2.DeleteStream("ticker"); err != nil {
		t.Fatal(err)
	}
	if err := r2.DeleteStream("ticker"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double DeleteStream = %v", err)
	}
	r3, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := r3.ListStreams(); len(got) != 0 {
		t.Fatalf("deleted stream survived restart: %+v", got)
	}
}

// A warm refit whose fitted population overflows at the data scale (values
// near the float64 ceiling) fails the append instead of committing N = +Inf:
// the stream keeps its last good, valid model, and the ticks of that append
// and of every later one persist and survive a reopen.
func TestStreamOverflowingRefitKeepsModelAndPersists(t *testing.T) {
	opts := Options{DataDir: t.TempDir()}
	r, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// A level plus one bump, then the same ticks scaled to a peak of 1.7e308.
	series := make([]float64, 60)
	for i := range series {
		series[i] = 2 + math.Sin(float64(i)/5)
		if i >= 30 && i < 33 {
			series[i] += 6
		}
	}
	peak := 0.0
	for _, v := range series {
		peak = math.Max(peak, v)
	}
	huge := make([]float64, 40)
	for i := range huge {
		huge[i] = series[i] * (1.7e308 / peak)
	}
	if st, err := r.AppendStream(ctx, "s", series, AppendOptions{RefitEvery: 20}); err != nil || !st.Refitted {
		t.Fatalf("cold fit append: status %+v, err %v", st, err)
	}
	if _, err := r.AppendStream(ctx, "s", huge, AppendOptions{}); err == nil {
		t.Fatal("the append whose refit overflows succeeded; want the refit's error")
	}
	validModel := func(r *Registry) {
		t.Helper()
		m, err := r.StreamModel("s")
		if err != nil {
			t.Fatal(err)
		}
		if err := coreOf(t, m).Validate(); err != nil {
			t.Fatalf("stream model after the overflowing refit: %v", err)
		}
	}
	validModel(r)
	for i := 0; i < 5; i++ {
		if _, err := r.AppendStream(ctx, "s", huge[i:i+1], AppendOptions{}); err != nil {
			t.Fatalf("append %d after the failed refit: %v", i, err)
		}
	}
	fc, err := r.StreamForecast("s", 10)
	if err != nil {
		t.Fatal(err)
	}

	r2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := r2.StreamStatusFor("s"); err != nil || st.Len != 105 || !st.Ready {
		t.Fatalf("reopened stream: status %+v, err %v; want 105 ready ticks", st, err)
	}
	validModel(r2)
	fc2, err := r2.StreamForecast("s", 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fc {
		if fc[i] != fc2[i] {
			t.Fatalf("forecast diverges after reopen at %d: %g vs %g", i, fc[i], fc2[i])
		}
	}
}

func TestStreamAppendValidation(t *testing.T) {
	r, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AppendStream(context.Background(), "bad id", []float64{1}, AppendOptions{}); !errors.Is(err, ErrBadID) {
		t.Fatalf("bad stream id accepted: %v", err)
	}
	if _, err := r.AppendStream(context.Background(), "s", nil, AppendOptions{}); err == nil {
		t.Fatal("empty append accepted")
	}
	// Missing values survive the append path.
	if _, err := r.AppendStream(context.Background(), "s", []float64{1, tensor.Missing, 2}, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	st, err := r.StreamStatusFor("s")
	if err != nil || st.Len != 3 {
		t.Fatalf("status = %+v, %v", st, err)
	}
}

func TestCorruptStreamSnapshotSkipped(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AppendStream(context.Background(), "ok", []float64{1, 2, 3}, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "streams", "bad.json"),
		[]byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatalf("corrupt stream snapshot blocked boot: %v", err)
	}
	if got := r2.ListStreams(); len(got) != 1 || got[0].ID != "ok" {
		t.Fatalf("streams after boot = %+v", got)
	}
}
