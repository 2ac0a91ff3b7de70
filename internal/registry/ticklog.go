package registry

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"path/filepath"
	"strings"

	"dspot/internal/faultfs"
	"dspot/internal/numcheck"
)

// Stream persistence is a snapshot plus an append-only tick log. The
// snapshot, streams/<id>.json, holds the whole stream state and names the
// stream's live segment, streams/<id>@<suffix>.log. A plain append writes
// one record to that segment and fsyncs it before the append is
// acknowledged: the raw inputs of core.Stream.AppendAtCtx, the position and
// the values. Duplicate drops, gap fills, evictions and tail scans are
// deterministic, so the boot restores the snapshot and replays the segment
// through the same AppendAtCtx to the state the live stream had.
//
// What a replay cannot recompute is written as a fresh snapshot instead —
// a compaction: stream creation, option changes, any append that attempted
// a refit (the gate's verdict and the fit's outcome are not replayable), a
// forced refit, the first change after a boot or after a failed write, and
// a segment grown to the size of its snapshot, which keeps both the
// amortised write cost per append and the boot replay bounded.
//
// Record layout, little-endian:
//
//	len u32 | crc32 u32 | at i64 | n u32 | n × float64 bits
//
// len counts the bytes after the crc (12 + 8n) and the IEEE crc32 covers
// them. A single-tick record is 28 bytes.

// tickHeader is the fixed part of a record: len, crc, at and n.
const tickHeader = 20

// Compaction reasons, the label values of stream_compactions_total.
const (
	compactCreate     = "create"      // a new stream's first snapshot
	compactOptions    = "options"     // refit_every, mode or retention changed
	compactRefit      = "refit"       // a refit ran, failed or was deferred
	compactSize       = "size"        // the segment reached its snapshot's size
	compactBoot       = "boot"        // first change after a restart
	compactWriteError = "write_error" // a failed write closed the segment
)

// segment is a stream's open tick-log file.
type segment struct {
	f     faultfs.File
	size  int64 // bytes written to it
	limit int64 // size of the snapshot naming it; reaching it compacts
}

// tickRecordSize is the encoded size of a record carrying n values.
func tickRecordSize(n int) int64 { return tickHeader + 8*int64(n) }

// appendTickRecord appends one record to buf.
func appendTickRecord(buf []byte, at int64, values []float64) []byte {
	start := len(buf)
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, uint32(12+8*len(values)))
	buf = le.AppendUint32(buf, 0) // crc, filled in below
	buf = le.AppendUint64(buf, uint64(at))
	buf = le.AppendUint32(buf, uint32(len(values)))
	for _, v := range values {
		buf = le.AppendUint64(buf, math.Float64bits(v))
	}
	le.PutUint32(buf[start+4:], crc32.ChecksumIEEE(buf[start+8:]))
	return buf
}

// decodeTickLog hands the records of a segment to apply in order, stopping
// at the first record that is short or fails its checksum, or that carries
// a negative position or a value numcheck rejects, or that apply refuses.
// It is the trust boundary for segment files (fuzzed by
// FuzzDecodeTickLog). A short or checksum-failing record that ends the
// file is a crash's torn tail — the write was never acknowledged — and
// reports nothing; with bytes after it, or past a good checksum, the
// segment is corrupt. The values slice is reused between calls.
func decodeTickLog(data []byte, apply func(at int64, values []float64) bool) (corrupt bool) {
	le := binary.LittleEndian
	var values []float64
	for off := 0; off < len(data); {
		rest := data[off:]
		if len(rest) < tickHeader {
			return false
		}
		plen, n := uint64(le.Uint32(rest)), uint64(le.Uint32(rest[16:]))
		if plen != 12+8*n {
			// A torn write leaves a prefix of a valid header, so a header
			// that contradicts itself is damage — unless the tail is the
			// zero fill a filesystem can leave past an unsynced write.
			return !allZero(rest)
		}
		end := 8 + plen
		if end > uint64(len(rest)) {
			return false
		}
		body := rest[8:end]
		if crc32.ChecksumIEEE(body) != le.Uint32(rest[4:]) {
			return end < uint64(len(rest))
		}
		// Past the checksum the record is what was written, so anything
		// wrong with it is damage wherever it sits.
		at := int64(le.Uint64(body))
		values = values[:0]
		for i := uint64(0); i < n; i++ {
			values = append(values, math.Float64frombits(le.Uint64(body[12+8*i:])))
		}
		if at < 0 || numcheck.Sequence("tick log", values) != nil || !apply(at, values) {
			return true
		}
		off += int(end)
	}
	return false
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// segmentOf parses a segment file name, <id>@<suffix>.log, into the id of
// the stream it belongs to. "@" cannot occur in a ValidateID id.
func segmentOf(name string) (id string, ok bool) {
	stem, ok := strings.CutSuffix(name, ".log")
	if !ok {
		return "", false
	}
	id, suffix, ok := strings.Cut(stem, "@")
	if !ok || ValidateID(id) != nil || ValidateID(suffix) != nil {
		return "", false
	}
	return id, true
}

// owe records why st's next persisted change must compact; the first
// reason owed wins.
func (st *stream) owe(reason string) {
	if st.owed == "" {
		st.owed = reason
	}
}

// persist makes st's latest change durable (st.mu held, data dir set):
// one record for the append of values at position at, or a compaction
// when one is owed or the record would grow the segment to its snapshot's
// size. It reports whether it compacted. A failure closes the segment, so
// the next change compacts.
func (r *Registry) persist(st *stream, at int64, values []float64) (compacted bool, err error) {
	reason := st.owed
	if reason == "" && st.seg.size+tickRecordSize(len(values)) >= st.seg.limit {
		reason = compactSize
	}
	if reason != "" {
		err = r.compact(st, reason)
	} else {
		err = r.logTicks(st, at, values)
	}
	if err != nil {
		r.dropSegment(st)
		r.opts.Metrics.persistError()
	}
	return reason != "", err
}

// logTicks writes and fsyncs one record to st's open segment.
func (r *Registry) logTicks(st *stream, at int64, values []float64) error {
	st.buf = appendTickRecord(st.buf[:0], at, values)
	if _, err := st.seg.f.Write(st.buf); err != nil {
		return err
	}
	if err := st.seg.f.Sync(); err != nil {
		return err
	}
	st.seg.size += int64(len(st.buf))
	return nil
}

// compact is the only writer of stream snapshots. It creates the next
// segment, atomically writes a snapshot of the whole state naming it —
// writeFileAtomic's closing directory fsync makes the new segment's entry
// durable too — and only then closes and removes the segments before it.
// A crash at any step reboots to the old snapshot with its segment or to
// the new one with an empty segment; the boot sweeps the other.
func (r *Registry) compact(st *stream, reason string) error {
	f, err := r.fs.CreateTemp(filepath.Join(r.dir, streamsDir), st.id+"@*.log")
	if err != nil {
		return err
	}
	data, err := encodeStreamSnapshot(st, filepath.Base(f.Name()))
	if err == nil {
		err = writeFileAtomic(r.fs, r.streamPath(st.id), data)
	}
	if err != nil {
		f.Close()
		// A failed directory sync comes after the rename, so the snapshot
		// on disk may name this segment: remove it only once a later
		// compaction has replaced that snapshot.
		st.retired = append(st.retired, f.Name())
		return err
	}
	r.closeSegment(st)
	r.removeRetired(st)
	st.seg = &segment{f: f, limit: int64(len(data))}
	st.owed = ""
	r.opts.Metrics.streamCompaction(reason)
	return nil
}

// closeSegment closes st's open segment, if any, and queues its file for
// removal by the next compaction: until then the snapshot on disk still
// names it.
func (r *Registry) closeSegment(st *stream) {
	if st.seg == nil {
		return
	}
	if err := st.seg.f.Close(); err != nil {
		r.logger().Warn("registry: closing stream segment", "id", st.id, "err", err)
	}
	st.retired = append(st.retired, st.seg.f.Name())
	st.seg = nil
}

// dropSegment abandons st's segment after a failed write; the next
// persisted change compacts.
func (r *Registry) dropSegment(st *stream) {
	r.closeSegment(st)
	st.owed = compactWriteError
}

// removeRetired deletes the segment files st no longer needs.
// Best-effort: a file left behind is swept on the next boot.
func (r *Registry) removeRetired(st *stream) {
	for _, path := range st.retired {
		if err := r.fs.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			r.logger().Warn("registry: removing stream segment", "id", st.id, "file", path, "err", err)
		}
	}
	st.retired = st.retired[:0]
}

// replayGate refuses every refit. A record in a segment never attempted
// one when it was live (such appends compact instead), so a refit attempt
// during replay means the segment does not match its snapshot — and a boot
// must never run a fit.
type replayGate struct{}

func (replayGate) TryAcquire() (func(), bool) { return nil, false }

// replaySegment re-applies the named segment to st, just restored from the
// snapshot naming it. The segment is retired: the first change after the
// boot compacts and removes it. A corrupt or missing segment is counted in
// registry_corrupt_total; the records before the damage are kept, and the
// recovered state is compacted at once so the next boot starts clean.
func (r *Registry) replaySegment(st *stream, name string) error {
	path := filepath.Join(r.dir, streamsDir, name)
	st.retired = append(st.retired, path)
	data, err := r.fs.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		r.opts.Metrics.corruptFile()
		r.logger().Warn("registry: stream segment missing; restoring its snapshot alone",
			"id", st.id, "file", path)
	case err != nil:
		return fmt.Errorf("registry: reading stream %q segment: %w", st.id, err)
	default:
		st.s.SetRefitGate(replayGate{})
		corrupt := decodeTickLog(data, func(at int64, values []float64) bool {
			rec, err := st.s.AppendAtCtx(context.Background(), at, values...)
			return err == nil && !rec.Deferred
		})
		st.s.SetRefitGate(r.refitGate)
		if !corrupt {
			return nil
		}
		r.quarantine(path, "stream segment", st.id, errors.New("bad record before the end of the segment"))
	}
	if _, err := r.persist(st, 0, nil); err != nil {
		r.logger().Error("registry: compacting recovered stream", "id", st.id, "err", err)
	}
	return nil
}
