// Package registry is the stateful heart of the serving layer: a versioned
// store of fitted models plus named incremental streams, shared by every
// request instead of round-tripping model JSON through clients.
//
// Models are engine-typed (engine.Model): each entry records which engine
// produced it, persistence delegates to that engine's Encode/DecodeModel,
// and manifest entries written before the engine subsystem existed load as
// the default Δ-SPOT engine, so old data directories keep working.
//
// Models live in an in-memory map guarded by a mutex, with an LRU bound on
// how many stay loaded. When a data directory is configured every Put is
// persisted atomically (model JSON written temp-then-rename, then a small
// manifest indexing all models), so a restarted server reopens the
// directory and serves the same models; evicted models reload from disk on
// demand. Streams wrap core.Stream: clients append ticks and the registry
// refits incrementally, logging each append as one fsynced record in the
// stream's tick log and compacting the log into a full snapshot now and
// then (ticklog.go).
//
// Concurrency contract: engine.Model values returned by Get are shared and
// must be treated as read-only (every Model method used for serving is).
// Stream appends serialise per stream but run concurrently across streams
// and never hold the registry lock during a fit.
package registry

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dspot/internal/core"
	"dspot/internal/engine"
	"dspot/internal/faultfs"
	"dspot/internal/obs/trace"
)

// Registry errors recognised by callers (the HTTP layer maps them to
// status codes).
var (
	ErrNotFound   = errors.New("registry: not found")
	ErrBadID      = errors.New("registry: bad id")
	ErrBadRequest = errors.New("registry: bad request")
)

// DefaultMaxLoaded bounds in-memory models when Options.MaxLoaded is 0.
const DefaultMaxLoaded = 64

// Options configures Open.
type Options struct {
	// DataDir is the persistence root ("" keeps everything in memory; the
	// LRU bound is then ignored, since evicting would lose data).
	DataDir string
	// MaxLoaded bounds models held in memory at once (default
	// DefaultMaxLoaded). Only effective with a DataDir.
	MaxLoaded int
	// Logger, when non-nil, reports loads, evictions and persistence
	// problems.
	Logger *slog.Logger
	// Metrics, when non-nil, exports registry gauges and counters.
	Metrics *Metrics
	// Tracer, when non-nil, records a span per stream append (covering the
	// append, any triggered refit, and the persistence write, with a
	// compacted attribute on appends that wrote a snapshot) under the
	// caller's span.
	Tracer *trace.Tracer
	// StreamFit are the fitting options applied to stream (re)fits.
	StreamFit core.FitOptions
	// RefitEvery is the default stream refit cadence in ticks (0 selects
	// core.NewStream's default).
	RefitEvery int
	// StreamMode is the default debt policy for new streams: "incremental"
	// re-scans the tail per tick and refits when the surcharged debt
	// crosses its limit, anything else (and "") refits every RefitEvery
	// ticks. Every fitted stream steps its checkpoint per tick either way.
	// Per-append options override it.
	StreamMode string
	// StreamIncremental tunes stream maintenance: its tail window sizes
	// every stream's checkpoint ring, and its debt limit applies under the
	// incremental policy. Zero fields select the core defaults.
	StreamIncremental core.IncrementalConfig
	// StreamRetention, when positive, bounds every stream to its newest N
	// ticks: older ticks are evicted and folded into the checkpointed fit
	// state (see core.Stream.SetRetention). A horizon already persisted on a
	// restored stream wins over this default. 0 keeps streams unbounded.
	StreamRetention int
	// MaxConcurrentRefits caps scheduler-admitted full stream refits running
	// at once (default DefaultMaxConcurrentRefits); streams whose refit is
	// deferred keep their debt and retry on the next append. Ignored when
	// RefitGate is set.
	MaxConcurrentRefits int
	// RefitGate, when non-nil, replaces the built-in semaphore gate —
	// chaos tests inject counting gates here.
	RefitGate core.RefitGate
	// FS abstracts the persistence filesystem (nil selects the real one).
	// Chaos tests pass a faultfs.Injector to schedule write faults.
	FS faultfs.FS
}

// Info describes one stored model without loading it.
type Info struct {
	ID          string `json:"id"`
	Version     int    `json:"version"`
	Engine      string `json:"engine"`
	CreatedUnix int64  `json:"created_unix"`
	UpdatedUnix int64  `json:"updated_unix"`
	Keywords    int    `json:"keywords"`
	Locations   int    `json:"locations"`
	Ticks       int    `json:"ticks"`
	Loaded      bool   `json:"loaded"`
}

// entry is one model slot: metadata always, the model itself only while
// loaded (elem tracks its LRU position; both nil when evicted). sum is the
// manifest checksum of the persisted JSON ("" for memory-only registries
// and legacy entries persisted before checksums existed); file is the
// manifest-relative path the bytes live at ("" for memory-only).
type entry struct {
	info  Info
	sum   string
	file  string
	model engine.Model
	elem  *list.Element
}

// Registry is a concurrent, optionally persistent model and stream store.
type Registry struct {
	opts Options
	dir  string // "" = memory only
	fs   faultfs.FS

	mu     sync.Mutex
	models map[string]*entry
	lru    *list.List // of *entry; front = most recently used
	loaded int

	streamMu sync.Mutex
	streams  map[string]*stream

	// refitGate rate-limits consolidating stream refits fleet-wide
	// (scheduler.go); shared by every stream the registry owns.
	refitGate core.RefitGate
}

// ValidateID checks a model or stream identifier: 1–64 characters from
// [a-zA-Z0-9._-], not starting with a dot (ids double as file names).
func ValidateID(id string) error {
	if id == "" || len(id) > 64 || id[0] == '.' {
		return fmt.Errorf("%w: %q", ErrBadID, id)
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("%w: %q", ErrBadID, id)
		}
	}
	return nil
}

// Open builds a registry. With a DataDir it creates the layout
// (models/, streams/, manifest.json), reads the manifest, and registers
// every surviving model unloaded — load-on-boot means the index is restored
// immediately while model JSON loads lazily on first Get. Stream snapshots
// are restored eagerly (they must accept appends at once).
func Open(opts Options) (*Registry, error) {
	if opts.MaxLoaded <= 0 {
		opts.MaxLoaded = DefaultMaxLoaded
	}
	if opts.FS == nil {
		opts.FS = faultfs.OS{}
	}
	r := &Registry{
		opts:      opts,
		dir:       opts.DataDir,
		fs:        opts.FS,
		models:    make(map[string]*entry),
		lru:       list.New(),
		streams:   make(map[string]*stream),
		refitGate: opts.RefitGate,
	}
	if r.refitGate == nil {
		r.refitGate = newSemGate(opts.MaxConcurrentRefits)
	}
	if r.dir == "" {
		r.gauges()
		return r, nil
	}
	for _, sub := range []string{modelsDir, streamsDir} {
		if err := r.fs.MkdirAll(filepath.Join(r.dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("registry: creating layout: %w", err)
		}
	}
	if err := r.loadManifest(); err != nil {
		return nil, err
	}
	if err := r.loadStreams(); err != nil {
		return nil, err
	}
	r.gauges()
	return r, nil
}

const (
	modelsDir    = "models"
	streamsDir   = "streams"
	manifestFile = "manifest.json"
)

// modelFile is the manifest-relative path of one model version's JSON.
// Every version gets its own file so an overwriting Put never touches the
// bytes the manifest currently points at: the new file is written, the
// manifest commits, and only then is the previous version's file deleted.
// The "@" separator cannot appear in a ValidateID id, so a versioned name
// can never collide with another model's legacy "<id>.json" file.
func modelFile(id string, version int) string {
	return fmt.Sprintf("%s/%s@v%d.json", modelsDir, id, version)
}

// absPath resolves a manifest-relative (slash-separated) file path under
// the data dir.
func (r *Registry) absPath(rel string) string {
	return filepath.Join(r.dir, filepath.FromSlash(rel))
}

// nopLogger swallows log records when no Logger is configured.
var nopLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{
	Level: slog.Level(127), // above every level: nothing is ever emitted
}))

func (r *Registry) logger() *slog.Logger {
	if r.opts.Logger != nil {
		return r.opts.Logger
	}
	return nopLogger
}

// quarantine renames a bad persisted file to <path>.corrupt so it is out of
// the registry's way but still on disk for post-mortem, and counts it. A
// rename failure is logged but not fatal: the entry is dropped either way,
// so the bad file can at worst be re-quarantined on the next boot.
func (r *Registry) quarantine(path, kind, id string, cause error) {
	r.opts.Metrics.corruptFile()
	dst := path + ".corrupt"
	if err := r.fs.Rename(path, dst); err != nil {
		r.logger().Error("registry: quarantining corrupt file failed",
			"kind", kind, "id", id, "file", path, "cause", cause, "err", err)
		return
	}
	r.logger().Warn("registry: quarantined corrupt file",
		"kind", kind, "id", id, "file", dst, "cause", cause)
}

// loadManifest restores the model index from disk, verifying every listed
// file against its manifest checksum. A missing file is dropped; a file
// that fails its checksum (torn write, bit rot, hand edit) is quarantined
// as <file>.corrupt and dropped. Either way the boot proceeds — one bad
// model must not take the whole service down — and the manifest is
// rewritten atomically so the on-disk index matches what actually survived
// recovery.
func (r *Registry) loadManifest() error {
	data, err := r.fs.ReadFile(filepath.Join(r.dir, manifestFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil // fresh directory
	}
	if err != nil {
		return fmt.Errorf("registry: reading manifest: %w", err)
	}
	mf, err := decodeManifest(data)
	if err != nil {
		return err
	}
	dropped := 0
	for _, e := range mf.Models {
		path := filepath.Join(r.dir, filepath.FromSlash(e.File))
		body, readErr := r.fs.ReadFile(path)
		if readErr != nil {
			dropped++
			if errors.Is(readErr, fs.ErrNotExist) {
				r.opts.Metrics.corruptFile()
				r.logger().Warn("registry: dropping manifest entry, model file missing",
					"id", e.ID, "file", e.File, "err", readErr)
			} else {
				r.quarantine(path, "model", e.ID, readErr)
			}
			continue
		}
		if e.Checksum != "" {
			if got := checksumOf(body); got != e.Checksum {
				dropped++
				r.quarantine(path, "model", e.ID,
					fmt.Errorf("checksum %s, manifest says %s", got, e.Checksum))
				continue
			}
		}
		eng := e.Engine
		if eng == "" {
			// Entries persisted before the engine subsystem are Δ-SPOT models.
			eng = engine.Default
		}
		r.models[e.ID] = &entry{sum: e.Checksum, file: e.File, info: Info{
			ID: e.ID, Version: e.Version, Engine: eng,
			CreatedUnix: e.CreatedUnix, UpdatedUnix: e.UpdatedUnix,
			Keywords: e.Keywords, Locations: e.Locations, Ticks: e.Ticks,
		}}
	}
	if dropped > 0 {
		// Recovery rewrite: the manifest must never keep promising entries
		// that were dropped, or every future boot re-reports the same
		// corruption and List keeps serving ghosts.
		if err := r.saveManifestLocked(); err != nil {
			return err
		}
	}
	r.sweepOrphans()
	return nil
}

// sweepOrphans removes model files no manifest entry references: the
// previous version left behind when a crash hit between the manifest
// commit and its deletion, a new version whose manifest commit never
// happened, and stray temp files. Quarantined *.corrupt files stay for
// post-mortem. Best-effort — a failure here only leaves litter, never
// loses indexed data.
func (r *Registry) sweepOrphans() {
	referenced := make(map[string]bool, len(r.models))
	for _, e := range r.models {
		referenced[filepath.Base(filepath.FromSlash(e.file))] = true
	}
	dir := filepath.Join(r.dir, modelsDir)
	des, err := r.fs.ReadDir(dir)
	if err != nil {
		r.logger().Warn("registry: sweeping models dir", "err", err)
		return
	}
	r.sweepFiles(dir, des, func(name string) bool {
		return !referenced[name] && !strings.HasSuffix(name, ".corrupt")
	})
}

// sweepFiles removes the files among entries of dir that orphan selects.
func (r *Registry) sweepFiles(dir string, entries []fs.DirEntry, orphan func(name string) bool) {
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !orphan(name) {
			continue
		}
		if err := r.fs.Remove(filepath.Join(dir, name)); err != nil {
			r.logger().Warn("registry: removing orphan file", "dir", dir, "file", name, "err", err)
			continue
		}
		r.logger().Info("registry: removed orphan file", "dir", dir, "file", name)
	}
}

// saveManifestLocked rewrites the manifest from the current index.
func (r *Registry) saveManifestLocked() error {
	mf := &manifest{Version: manifestVersion}
	ids := make([]string, 0, len(r.models))
	for id := range r.models {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		e := r.models[id]
		info := e.info
		mf.Models = append(mf.Models, manifestEntry{
			ID: info.ID, Version: info.Version, Engine: info.Engine,
			File:        e.file,
			Checksum:    e.sum,
			CreatedUnix: info.CreatedUnix, UpdatedUnix: info.UpdatedUnix,
			Keywords: info.Keywords, Locations: info.Locations, Ticks: info.Ticks,
		})
	}
	data, err := encodeManifest(mf)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(r.fs, filepath.Join(r.dir, manifestFile), data); err != nil {
		r.opts.Metrics.persistError()
		return fmt.Errorf("registry: writing manifest: %w", err)
	}
	return nil
}

// Put stores (or replaces) a model under id, bumping its version, and
// persists it before updating the in-memory index so a crash between the
// two leaves the previous manifest pointing at the previous content. The
// model's engine (m.EngineName()) must be registered — it supplies the
// persistence encoding and is recorded so Get can decode with the same one.
func (r *Registry) Put(id string, m engine.Model) (Info, error) {
	if err := ValidateID(id); err != nil {
		return Info{}, err
	}
	if err := m.Validate(); err != nil {
		return Info{}, fmt.Errorf("registry: rejecting model %q: %w", id, err)
	}
	eng, err := engine.Lookup(m.EngineName())
	if err != nil {
		return Info{}, fmt.Errorf("registry: rejecting model %q: %w", id, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now().Unix()
	e, exists := r.models[id]
	if !exists {
		e = &entry{info: Info{ID: id, CreatedUnix: now}}
	}
	next := e.info
	next.Version++
	next.UpdatedUnix = now
	next.Engine = eng.Name()
	next.Keywords, next.Locations, next.Ticks = len(m.Keywords()), len(m.Locations()), m.Ticks()
	sum, file, prevFile := "", "", e.file
	if r.dir != "" {
		var buf strings.Builder
		if err := eng.EncodeModel(&buf, m); err != nil {
			return Info{}, fmt.Errorf("registry: encoding model %q: %w", id, err)
		}
		body := []byte(buf.String())
		sum = checksumOf(body)
		// Each version goes to its own file: an overwriting Put must never
		// touch the bytes the committed manifest points at, or a crash
		// before the manifest rewrite leaves a checksum mismatch that
		// quarantines the only surviving copy on the next boot.
		file = modelFile(id, next.Version)
		if err := writeFileAtomic(r.fs, r.absPath(file), body); err != nil {
			r.opts.Metrics.persistError()
			return Info{}, fmt.Errorf("registry: persisting model %q: %w", id, err)
		}
	}
	// Point of no return: install in memory, then index on disk.
	if !exists {
		r.models[id] = e
	}
	wasLoaded := e.elem != nil
	e.info = next
	e.sum = sum
	e.file = file
	e.model = m
	r.touchLocked(e)
	if !wasLoaded {
		r.loaded++
	}
	r.evictLocked(e)
	if r.dir != "" {
		if err := r.saveManifestLocked(); err != nil {
			return Info{}, err
		}
		if prevFile != "" && prevFile != file {
			// The manifest now points at the new version; the old file is
			// garbage. Removal is best-effort — a crash or fault here
			// leaves an orphan the next boot's sweep collects.
			if err := r.fs.Remove(r.absPath(prevFile)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				r.logger().Warn("registry: removing previous model version",
					"id", id, "file", prevFile, "err", err)
			}
		}
	}
	r.gaugesLocked()
	e.info.Loaded = true
	return e.info, nil
}

// Get returns the model stored under id, reloading it from disk (via the
// engine recorded at Put time) when the LRU bound had evicted it. The
// returned model is shared: read-only.
func (r *Registry) Get(id string) (engine.Model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.models[id]
	if !ok {
		return nil, fmt.Errorf("%w: model %q", ErrNotFound, id)
	}
	if e.model == nil {
		path := r.absPath(e.file)
		body, err := r.fs.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("registry: reloading model %q: %w", id, err)
		}
		if e.sum != "" {
			if got := checksumOf(body); got != e.sum {
				// The file changed under us since it was persisted. Quarantine
				// and forget the entry: serving a silently-corrupted model is
				// strictly worse than a clean not-found.
				r.quarantine(path, "model", id,
					fmt.Errorf("checksum %s, manifest says %s", got, e.sum))
				delete(r.models, id)
				if err := r.saveManifestLocked(); err != nil {
					r.logger().Error("registry: rewriting manifest after quarantine", "err", err)
				}
				r.gaugesLocked()
				return nil, fmt.Errorf("%w: model %q (quarantined: checksum mismatch)", ErrNotFound, id)
			}
		}
		m, err := engine.Decode(e.info.Engine, bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("registry: reloading model %q: %w", id, err)
		}
		r.logger().Debug("registry: reloaded model from disk", "id", id)
		e.model = m
		r.loaded++
	}
	r.touchLocked(e)
	r.evictLocked(e)
	r.gaugesLocked()
	return e.model, nil
}

// Stat returns a model's metadata without loading it.
func (r *Registry) Stat(id string) (Info, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.models[id]
	if !ok {
		return Info{}, fmt.Errorf("%w: model %q", ErrNotFound, id)
	}
	info := e.info
	info.Loaded = e.model != nil
	return info, nil
}

// Delete removes a model from memory and disk.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.models[id]
	if !ok {
		return fmt.Errorf("%w: model %q", ErrNotFound, id)
	}
	delete(r.models, id)
	if e.elem != nil {
		r.lru.Remove(e.elem)
		e.elem = nil
		r.loaded--
	}
	if r.dir != "" {
		if e.file != "" {
			if err := r.fs.Remove(r.absPath(e.file)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				r.logger().Warn("registry: removing model file", "id", id, "err", err)
			}
		}
		if err := r.saveManifestLocked(); err != nil {
			return err
		}
	}
	r.gaugesLocked()
	return nil
}

// List returns metadata for every stored model, sorted by id.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.models))
	for _, e := range r.models {
		info := e.info
		info.Loaded = e.model != nil
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of stored models (loaded or not).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.models)
}

// touchLocked moves e to the front of the LRU (inserting if absent).
func (r *Registry) touchLocked(e *entry) {
	if e.elem != nil {
		r.lru.MoveToFront(e.elem)
		return
	}
	e.elem = r.lru.PushFront(e)
}

// evictLocked drops least-recently-used models beyond the bound. keep is
// never evicted (it is the entry the caller is about to hand out).
// Memory-only registries never evict: there is no disk to reload from.
func (r *Registry) evictLocked(keep *entry) {
	if r.dir == "" {
		return
	}
	for r.loaded > r.opts.MaxLoaded {
		back := r.lru.Back()
		if back == nil {
			return
		}
		victim := back.Value.(*entry)
		if victim == keep {
			// keep is the oldest but must stay; nothing older to evict.
			return
		}
		r.lru.Remove(back)
		victim.elem = nil
		victim.model = nil
		r.loaded--
		r.opts.Metrics.eviction()
		r.logger().Debug("registry: evicted model", "id", victim.info.ID)
	}
}

// gauges refreshes the exported registry gauges.
func (r *Registry) gauges() {
	r.mu.Lock()
	r.gaugesLocked()
	r.mu.Unlock()
}

// gaugesLocked refreshes the model gauges (r.mu held). The stream gauge is
// maintained separately under streamMu — never take both locks at once.
func (r *Registry) gaugesLocked() {
	r.opts.Metrics.setModelSizes(len(r.models), r.loaded)
}
