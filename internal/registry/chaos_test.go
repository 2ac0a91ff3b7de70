package registry

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dspot/internal/core"
	"dspot/internal/faultfs"
	"dspot/internal/obs"
)

// reopenClean reopens dir with the real filesystem and fresh metrics, and
// asserts the durability invariant: the boot succeeds, nothing needs
// quarantining, and every model the manifest promises actually loads.
func reopenClean(t *testing.T, dir string) (*Registry, *Metrics) {
	t.Helper()
	met := NewMetricsOn(obs.NewRegistry())
	r, err := Open(Options{DataDir: dir, Metrics: met})
	if err != nil {
		t.Fatalf("clean reopen failed: %v", err)
	}
	if got := met.corrupt.Value(); got != 0 {
		t.Fatalf("clean reopen quarantined %v files; boot state was half-visible", got)
	}
	for _, info := range r.List() {
		if _, err := r.Get(info.ID); err != nil {
			t.Fatalf("manifest promises %q but Get failed: %v", info.ID, err)
		}
	}
	return r, met
}

// countPutOps measures how many filesystem operations one persisted Put
// performs, so the fault sweep can schedule a fault at every position.
func countPutOps(t *testing.T) int {
	t.Helper()
	in := faultfs.NewInjector(nil)
	r, err := Open(Options{DataDir: t.TempDir(), FS: in})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("probe", testModel(1)); err != nil {
		t.Fatal(err)
	}
	in.Reset()
	if _, err := r.Put("probe", testModel(2)); err != nil {
		t.Fatal(err)
	}
	return injectedOps(in)
}

// injectedOps totals the operations an injector has counted.
func injectedOps(in *faultfs.Injector) int {
	n := in.Count(faultfs.OpAny)
	for _, op := range []string{faultfs.OpCreate, faultfs.OpWrite, faultfs.OpSync,
		faultfs.OpClose, faultfs.OpRename, faultfs.OpRemove, faultfs.OpRead,
		faultfs.OpReadDir, faultfs.OpStat, faultfs.OpMkdir, faultfs.OpSyncDir} {
		n += in.Count(op)
	}
	return n
}

// TestChaosPutFaultSweep injects a fault at every filesystem operation a
// persisted Put performs, one position per iteration, and proves the
// protocol's crash contract: the pre-existing model survives intact, and
// the model whose Put faulted is afterwards either fully present or fully
// absent — never a torn file, never a manifest entry pointing at garbage.
func TestChaosPutFaultSweep(t *testing.T) {
	ops := countPutOps(t)
	if ops < 6 {
		t.Fatalf("a persisted Put performed only %d fs ops; sweep would be vacuous", ops)
	}
	for k := 1; k <= ops; k++ {
		for _, short := range []bool{false, true} {
			t.Run(fmt.Sprintf("op%d_short=%v", k, short), func(t *testing.T) {
				dir := t.TempDir()
				in := faultfs.NewInjector(nil)
				r, err := Open(Options{DataDir: dir, FS: in})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.Put("stable", testModel(7)); err != nil {
					t.Fatal(err)
				}
				if short {
					in.ShortWriteNth(k) // only faults if the kth write exists
				} else {
					in.FailNth(faultfs.OpAny, k, nil)
				}
				_, putErr := r.Put("victim", testModel(9))

				r2, _ := reopenClean(t, dir)
				m, err := r2.Get("stable")
				if err != nil {
					t.Fatalf("pre-existing model lost after faulted Put: %v", err)
				}
				if coreOf(t, m).Global[0].N != 8 {
					t.Fatalf("pre-existing model content changed: N = %v", coreOf(t, m).Global[0].N)
				}
				if putErr == nil {
					// The fault missed (e.g. short-write rule on a non-write
					// op position) or hit a tolerated op; victim must be whole.
					if _, err := r2.Get("victim"); err != nil {
						t.Fatalf("Put reported success but model unreadable: %v", err)
					}
				} else if _, err := r2.Get("victim"); err == nil {
					// Present is fine too (fault after the point of
					// durability, e.g. on the final directory sync) — but
					// then it must be the *new* content, verified by Get's
					// checksum path inside reopenClean.
					m, _ := r2.Get("victim")
					if m == nil || coreOf(t, m).Global[0].N != 10 {
						t.Fatalf("half-written victim visible after fault at op %d", k)
					}
				}
			})
		}
	}
}

// TestChaosOverwritePutFaultSweep is TestChaosPutFaultSweep for the
// *overwriting* Put: a model that already has a committed version is Put
// again with a fault injected at every filesystem operation. The crash
// contract here is stricter than fresh-id survival — the previously
// acknowledged version must never be destroyed, so after reboot the model
// is always present with either the old or the new content. (This is the
// case a shared-filename protocol loses: renaming new bytes over the old
// file before the manifest commits leaves a checksum mismatch that
// quarantines the only copy.)
func TestChaosOverwritePutFaultSweep(t *testing.T) {
	ops := countPutOps(t)
	for k := 1; k <= ops; k++ {
		for _, short := range []bool{false, true} {
			t.Run(fmt.Sprintf("op%d_short=%v", k, short), func(t *testing.T) {
				dir := t.TempDir()
				in := faultfs.NewInjector(nil)
				r, err := Open(Options{DataDir: dir, FS: in})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.Put("m", testModel(7)); err != nil {
					t.Fatal(err)
				}
				in.Reset()
				if short {
					in.ShortWriteNth(k)
				} else {
					in.FailNth(faultfs.OpAny, k, nil)
				}
				_, putErr := r.Put("m", testModel(9))

				r2, _ := reopenClean(t, dir)
				m, err := r2.Get("m")
				if err != nil {
					t.Fatalf("acknowledged model lost after faulted overwrite at op %d: %v", k, err)
				}
				n := coreOf(t, m).Global[0].N
				if n != 8 && n != 10 {
					t.Fatalf("model content is neither old nor new after fault at op %d: N = %v", k, n)
				}
				if putErr == nil && n != 10 {
					t.Fatalf("Put reported success but old content served: N = %v", n)
				}
			})
		}
	}
}

// TestLegacyModelFileLayoutMigrates covers directories written before
// versioned model files: a manifest entry pointing at models/<id>.json
// loads as-is, and the next Put migrates it to a versioned file and
// removes the legacy one.
func TestLegacyModelFileLayoutMigrates(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("old", testModel(2)); err != nil {
		t.Fatal(err)
	}
	// Rewrite the layout the way a legacy binary left it: bytes at
	// models/old.json, manifest pointing there.
	versioned := modelDiskPath(t, dir, "old")
	legacy := filepath.Join(dir, "models", "old.json")
	if err := os.Rename(versioned, legacy); err != nil {
		t.Fatal(err)
	}
	mfPath := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(mfPath)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	mf.Models[0].File = "models/old.json"
	rewritten, err := encodeManifest(mf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mfPath, rewritten, 0o644); err != nil {
		t.Fatal(err)
	}

	r2, _ := reopenClean(t, dir)
	if _, err := r2.Get("old"); err != nil {
		t.Fatalf("legacy layout rejected: %v", err)
	}
	if _, err := r2.Put("old", testModel(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("legacy file not removed after migrating Put: %v", err)
	}
	r3, _ := reopenClean(t, dir)
	m, err := r3.Get("old")
	if err != nil {
		t.Fatal(err)
	}
	if coreOf(t, m).Global[0].N != 6 {
		t.Fatalf("migrated model content N = %v, want 6", coreOf(t, m).Global[0].N)
	}
}

// TestChaosCorruptModelQuarantinedOnBoot flips bytes in a persisted model
// file and reboots: the checksum catches it, the file is quarantined as
// .corrupt, the counter fires, and the manifest is rewritten so the ghost
// does not return on the next boot.
func TestChaosCorruptModelQuarantinedOnBoot(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"good", "bad"} {
		if _, err := r.Put(id, testModel(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	path := modelDiskPath(t, dir, "bad")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	met := NewMetricsOn(obs.NewRegistry())
	r2, err := Open(Options{DataDir: dir, Metrics: met})
	if err != nil {
		t.Fatalf("corrupt model file blocked boot: %v", err)
	}
	if got := met.corrupt.Value(); got != 1 {
		t.Fatalf("registry_corrupt_total = %v, want 1", got)
	}
	if _, err := r2.Get("bad"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt model still served: %v", err)
	}
	if _, err := r2.Get("good"); err != nil {
		t.Fatalf("healthy sibling lost: %v", err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt file not preserved for post-mortem: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt file left in place: %v", err)
	}
	// Third boot: the rewritten manifest no longer lists the ghost, so
	// nothing is re-quarantined.
	reopenClean(t, dir)
}

// TestChaosMissingModelFileDropped deletes a model file out from under the
// manifest and reboots.
func TestChaosMissingModelFileDropped(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("gone", testModel(3)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(modelDiskPath(t, dir, "gone")); err != nil {
		t.Fatal(err)
	}
	met := NewMetricsOn(obs.NewRegistry())
	r2, err := Open(Options{DataDir: dir, Metrics: met})
	if err != nil {
		t.Fatalf("missing model file blocked boot: %v", err)
	}
	if met.corrupt.Value() != 1 {
		t.Fatalf("registry_corrupt_total = %v, want 1", met.corrupt.Value())
	}
	if r2.Len() != 0 {
		t.Fatalf("ghost entry survived: %v", r2.List())
	}
	reopenClean(t, dir)
}

// TestChaosGetQuarantinesTamperedModel tampers with a model file while its
// entry is evicted from memory; the lazy reload's checksum catches it.
func TestChaosGetQuarantinesTamperedModel(t *testing.T) {
	dir := t.TempDir()
	met := NewMetricsOn(obs.NewRegistry())
	r, err := Open(Options{DataDir: dir, MaxLoaded: 1, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("a", testModel(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("b", testModel(2)); err != nil { // evicts a
		t.Fatal(err)
	}
	info, err := r.Stat("a")
	if err != nil || info.Loaded {
		t.Fatalf("expected a evicted, got %+v, %v", info, err)
	}
	path := modelDiskPath(t, dir, "a")
	if err := os.WriteFile(path, []byte(`{"tampered":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tampered model served: %v", err)
	}
	if met.corrupt.Value() != 1 {
		t.Fatalf("registry_corrupt_total = %v, want 1", met.corrupt.Value())
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("tampered file not quarantined: %v", err)
	}
	// The quarantine rewrote the manifest: a clean reopen sees only b.
	r2, _ := reopenClean(t, dir)
	if r2.Len() != 1 {
		t.Fatalf("reopen models = %v, want only b", r2.List())
	}
}

// TestChaosStreamSnapshotFaults faults every filesystem operation of a
// persisted stream append, with an error (opN) and with a short write
// (opN_short). The first positions are the operations of a plain append,
// which logs a tick record; the rest those of a compacting append, which
// writes a fresh snapshot. The append itself must survive in memory (the
// fit is not lost), the caller sees the persistence error, and a clean
// reopen finds the stream as it was either before or after the append —
// never torn — and still accepting appends.
func TestChaosStreamSnapshotFaults(t *testing.T) {
	series := streamSeries(80)
	fit := core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 3}
	plain, compacting := AppendOptions{}, AppendOptions{Retention: 1000}
	plainOps := countStreamAppendOps(t, fit, plain)
	ops := plainOps + countStreamAppendOps(t, fit, compacting)
	if plainOps < 2 || ops < plainOps+6 {
		t.Fatalf("appends performed only %d and %d fs ops; sweep would be vacuous", plainOps, ops-plainOps)
	}
	for p := 1; p <= ops; p++ {
		opts, k := plain, p
		if p > plainOps {
			opts, k = compacting, p-plainOps
		}
		for _, short := range []bool{false, true} {
			name := fmt.Sprintf("op%d", p)
			if short {
				name += "_short"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				in := faultfs.NewInjector(nil)
				r, err := Open(Options{DataDir: dir, FS: in, StreamFit: fit})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.AppendStream(context.Background(), "s", series[:60], AppendOptions{RefitEvery: 30}); err != nil {
					t.Fatal(err)
				}
				if short {
					in.ShortWriteNth(k) // only faults if the kth write exists
				} else {
					in.FailNth(faultfs.OpAny, k, nil)
				}
				st, appendErr := r.AppendStream(context.Background(), "s", series[60:], opts)
				if appendErr != nil && !errors.Is(appendErr, faultfs.ErrInjected) {
					t.Fatalf("append error is not the injected fault: %v", appendErr)
				}
				if appendErr != nil && st.Len != 80 {
					t.Fatalf("persistence fault lost in-memory ticks: %+v", st)
				}

				r2, _ := reopenClean(t, dir)
				got, err := r2.StreamStatusFor("s")
				if err != nil {
					t.Fatalf("stream lost after a faulted append: %v", err)
				}
				if got.Len != 60 && got.Len != 80 {
					t.Fatalf("reopened stream len = %d, want 60 (old) or 80 (new)", got.Len)
				}
				if appendErr == nil && got.Len != 80 {
					t.Fatalf("acknowledged append lost: reopened len %d", got.Len)
				}
				// Whatever state survived must keep accepting appends.
				if _, err := r2.AppendStream(context.Background(), "s", []float64{1, 2}, AppendOptions{}); err != nil {
					t.Fatalf("surviving stream rejects appends: %v", err)
				}
			})
		}
	}
}

// TestChaosCorruptStreamQuarantined proves the boot-time stream scan moves
// bad snapshots aside instead of silently re-skipping them forever.
func TestChaosCorruptStreamQuarantined(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AppendStream(context.Background(), "ok", []float64{1, 2, 3}, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "streams", "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	inf := filepath.Join(dir, "streams", "infinite.json")
	if err := os.WriteFile(inf, []byte(`{"refit_every":10,"seq":[1e999,2]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	met := NewMetricsOn(obs.NewRegistry())
	r2, err := Open(Options{DataDir: dir, Metrics: met})
	if err != nil {
		t.Fatalf("corrupt snapshots blocked boot: %v", err)
	}
	if got := r2.ListStreams(); len(got) != 1 || got[0].ID != "ok" {
		t.Fatalf("streams after boot = %+v", got)
	}
	if met.corrupt.Value() != 2 {
		t.Fatalf("registry_corrupt_total = %v, want 2", met.corrupt.Value())
	}
	for _, p := range []string{bad, inf} {
		if _, err := os.Stat(p + ".corrupt"); err != nil {
			t.Fatalf("%s not quarantined: %v", p, err)
		}
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s left in place", p)
		}
	}
	// The quarantine is not re-reported on the next boot.
	_, met3 := reopenClean(t, dir)
	if met3.corrupt.Value() != 0 {
		t.Fatalf("quarantine re-fired on clean boot: %v", met3.corrupt.Value())
	}
}

// TestChaosStrayTempFilesIgnored seeds the data dir with leftover temp
// files — what a hard crash mid-protocol leaves behind — and checks the
// boot neither trips over them nor serves them.
func TestChaosStrayTempFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("real", testModel(1)); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{
		filepath.Join(dir, "manifest.json.tmp-123"),
		filepath.Join(dir, "models", "real.json.tmp-456"),
		filepath.Join(dir, "streams", "s.json.tmp-789"),
	} {
		if err := os.WriteFile(p, []byte("{torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r2, met := reopenClean(t, dir)
	if r2.Len() != 1 {
		t.Fatalf("models after boot = %v", r2.List())
	}
	if met.corrupt.Value() != 0 {
		t.Fatalf("stray temp files counted as corruption: %v", met.corrupt.Value())
	}
}

// TestWriteFileAtomicCleansUp verifies the failure branches of the write
// protocol remove their temp file instead of littering the data dir.
func TestWriteFileAtomicCleansUp(t *testing.T) {
	for k := 1; k <= 4; k++ { // create, write, sync, close
		dir := t.TempDir()
		in := faultfs.NewInjector(nil)
		in.FailNth(faultfs.OpAny, k, nil)
		err := writeFileAtomic(in, filepath.Join(dir, "f.json"), []byte("data"))
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("op %d: err = %v, want injected", k, err)
		}
		des, rerr := os.ReadDir(dir)
		if rerr != nil {
			t.Fatal(rerr)
		}
		for _, de := range des {
			if strings.Contains(de.Name(), ".tmp-") {
				t.Fatalf("op %d: temp file %q left behind", k, de.Name())
			}
		}
	}
}

// TestChaosManifestChecksumRoundTrip asserts Put records a checksum that
// matches the bytes on disk, byte for byte.
func TestChaosManifestChecksumRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("m", testModel(4)); err != nil {
		t.Fatal(err)
	}
	mfData, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(mfData, []byte(`"checksum": "crc32:`)) {
		t.Fatalf("manifest lacks checksum: %s", mfData)
	}
	mf, err := decodeManifest(mfData)
	if err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(modelDiskPath(t, dir, "m"))
	if err != nil {
		t.Fatal(err)
	}
	if got := checksumOf(body); got != mf.Models[0].Checksum {
		t.Fatalf("manifest checksum %s, file hashes to %s", mf.Models[0].Checksum, got)
	}
}

// TestLegacyManifestWithoutChecksumsLoads covers directories written before
// checksums existed: empty checksum means "unverified", not "invalid".
func TestLegacyManifestWithoutChecksumsLoads(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("old", testModel(2)); err != nil {
		t.Fatal(err)
	}
	// Strip the checksum the way a legacy binary would have written it.
	mfPath := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(mfPath)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	mf.Models[0].Checksum = ""
	stripped, err := encodeManifest(mf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mfPath, stripped, 0o644); err != nil {
		t.Fatal(err)
	}
	r2, met := reopenClean(t, dir)
	if _, err := r2.Get("old"); err != nil {
		t.Fatalf("legacy entry rejected: %v", err)
	}
	if met.corrupt.Value() != 0 {
		t.Fatalf("legacy entry counted corrupt: %v", met.corrupt.Value())
	}
	_ = r
}

// TestChaosStreamRefitFaults appends through injected refit faults: a
// poisoned Progress hook makes every full refit panic inside the fitter.
// The appended ticks must survive in memory, the last good fit must keep
// serving, the retry backoff must keep the error rate far below one per
// append, and persistence must round-trip the backoff state so a restart
// does not reset the schedule. Healing the fault lets a forced refit
// succeed and clear the backoff.
func TestChaosStreamRefitFaults(t *testing.T) {
	poisoned := false
	fit := core.FitOptions{DisableGrowth: true, Workers: 1, MaxShocks: 3,
		Progress: func(core.FitEvent) {
			if poisoned {
				panic("injected refit fault")
			}
		}}
	dir := t.TempDir()
	r, err := Open(Options{DataDir: dir, StreamFit: fit})
	if err != nil {
		t.Fatal(err)
	}
	series := streamSeries(160)
	if _, err := r.AppendStream(context.Background(), "s", series[:60], AppendOptions{RefitEvery: 10}); err != nil {
		t.Fatal(err)
	}
	seeded, err := r.StreamStatusFor("s")
	if err != nil {
		t.Fatal(err)
	}

	poisoned = true
	errs := 0
	for _, v := range series[60:120] {
		st, err := r.AppendStream(context.Background(), "s", []float64{v}, AppendOptions{})
		if err != nil {
			errs++
			continue
		}
		if !st.Ready {
			t.Fatalf("faulted stream lost its last good fit: %+v", st)
		}
	}
	if errs == 0 {
		t.Fatal("poisoned refits never surfaced an error")
	}
	if errs > 4 {
		t.Fatalf("backoff ineffective: %d refit errors over 60 appends", errs)
	}
	st, err := r.StreamStatusFor("s")
	if err != nil {
		t.Fatal(err)
	}
	if st.Len != 120 {
		t.Fatalf("faulted refits lost ticks: %+v", st)
	}
	// No refit succeeded, yet the stream still serves the last good fit.
	if st.Refits != seeded.Refits || !st.Ready {
		t.Fatalf("faulted stream state = %+v, want last good fit intact (refits %d)", st, seeded.Refits)
	}
	if fc, err := r.StreamForecast("s", 10); err != nil || len(fc) != 10 {
		t.Fatalf("faulted stream stopped forecasting: %v, %v", fc, err)
	}

	// Restart mid-backoff: the snapshot carries the retry schedule.
	r2, err := Open(Options{DataDir: dir, StreamFit: fit})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := r2.StreamStatusFor("s")
	if err != nil {
		t.Fatal(err)
	}
	if st2.RetryIn != st.RetryIn {
		t.Fatalf("backoff state lost across restart: %d != %d", st2.RetryIn, st.RetryIn)
	}

	// Heal the fault: a forced refit succeeds and clears the backoff.
	poisoned = false
	st3, err := r2.RefitStream(context.Background(), "s")
	if err != nil {
		t.Fatal(err)
	}
	if !st3.Refitted || st3.RetryIn != 0 {
		t.Fatalf("healed refit status = %+v, want refitted with no backoff", st3)
	}
}
