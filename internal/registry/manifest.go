package registry

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"regexp"

	"dspot/internal/faultfs"
)

// manifestVersion is the on-disk format version; bump on incompatible
// changes so old binaries refuse new directories instead of misreading
// them. Checksums were added as an optional field, so version 1 directories
// written before them still load (their entries simply go unverified until
// the next Put).
const manifestVersion = 1

// manifest is the registry's on-disk index: one entry per persisted model.
// The manifest is the source of truth on boot — a model file without an
// entry is ignored, an entry whose file is missing or fails its checksum is
// quarantined and dropped, and the manifest is rewritten to match what
// actually survived. Stream snapshots are deliberately not indexed here:
// each stream file is self-describing (it names its own tick-log segment)
// and the streams/ directory is scanned instead.
type manifest struct {
	Version int             `json:"version"`
	Models  []manifestEntry `json:"models"`
}

// manifestEntry records one model's identity and where its JSON lives,
// plus enough shape metadata to list models without loading them.
type manifestEntry struct {
	ID      string `json:"id"`
	Version int    `json:"version"`
	// Engine names the model engine that persisted (and decodes) the file.
	// "" is a legacy entry from before the engine subsystem: Δ-SPOT.
	Engine      string `json:"engine,omitempty"`
	File        string `json:"file"`               // relative to the data dir
	Checksum    string `json:"checksum,omitempty"` // "crc32:xxxxxxxx"; "" = unverified legacy entry
	CreatedUnix int64  `json:"created_unix"`
	UpdatedUnix int64  `json:"updated_unix"`
	Keywords    int    `json:"keywords"`
	Locations   int    `json:"locations"`
	Ticks       int    `json:"ticks"`
}

// checksumOf renders the manifest checksum of a persisted file's bytes.
func checksumOf(data []byte) string {
	return fmt.Sprintf("crc32:%08x", crc32.ChecksumIEEE(data))
}

var checksumRe = regexp.MustCompile(`^crc32:[0-9a-f]{8}$`)

// decodeManifest parses and validates manifest JSON. Every structural
// invariant the registry later relies on is checked here — the decoder is
// the trust boundary for a data dir that may have been hand-edited or
// corrupted, and it is fuzzed (FuzzDecodeManifest).
func decodeManifest(data []byte) (*manifest, error) {
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("registry: decoding manifest: %w", err)
	}
	if mf.Version != manifestVersion {
		return nil, fmt.Errorf("registry: manifest version %d, want %d", mf.Version, manifestVersion)
	}
	seen := make(map[string]bool, len(mf.Models))
	for i := range mf.Models {
		e := &mf.Models[i]
		if err := ValidateID(e.ID); err != nil {
			return nil, fmt.Errorf("registry: manifest entry %d: %w", i, err)
		}
		if seen[e.ID] {
			return nil, fmt.Errorf("registry: manifest lists %q twice", e.ID)
		}
		seen[e.ID] = true
		if e.Version < 1 {
			return nil, fmt.Errorf("registry: manifest entry %q: version %d < 1", e.ID, e.Version)
		}
		if e.File == "" || filepath.IsAbs(e.File) || !filepath.IsLocal(e.File) {
			return nil, fmt.Errorf("registry: manifest entry %q: unsafe file path %q", e.ID, e.File)
		}
		if e.Checksum != "" && !checksumRe.MatchString(e.Checksum) {
			return nil, fmt.Errorf("registry: manifest entry %q: malformed checksum %q", e.ID, e.Checksum)
		}
		if e.Keywords < 0 || e.Locations < 0 || e.Ticks < 0 {
			return nil, fmt.Errorf("registry: manifest entry %q: negative shape", e.ID)
		}
	}
	return &mf, nil
}

// encodeManifest renders the manifest as indented JSON.
func encodeManifest(mf *manifest) ([]byte, error) {
	return json.MarshalIndent(mf, "", "  ")
}

// writeFileAtomic writes data to path via a temp file in the same
// directory, fsyncs the file, renames it over path, and fsyncs the parent
// directory. Readers (and a crash at any point) see either the old or the
// new content, never a torn write — and once the call returns, the new
// content survives a power cut: without the file fsync the rename can
// publish a name pointing at data still in the page cache, and without the
// directory fsync the rename itself can be lost.
func writeFileAtomic(fsys faultfs.FS, path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := fsys.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() { fsys.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return err
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		cleanup()
		return err
	}
	return fsys.SyncDir(dir)
}
