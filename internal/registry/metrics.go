package registry

import (
	"time"

	"dspot/internal/obs"
)

// Metrics exports the registry's health: how many models it indexes, how
// many are resident in memory, stream count, incremental refits, LRU
// evictions and persistence failures. All methods are nil-safe so the
// registry can run unmetered.
type Metrics struct {
	models        *obs.Gauge        // registry_models
	loaded        *obs.Gauge        // registry_models_loaded
	streams       *obs.Gauge        // registry_streams
	evictions     *obs.Counter      // registry_evictions_total
	refits        *obs.Counter      // registry_stream_refits_total
	persistErrors *obs.Counter      // registry_persist_errors_total
	corrupt       *obs.Counter      // registry_corrupt_total
	appendSec     *obs.HistogramVec // stream_append_seconds{path}

	evictedTicks   *obs.Counter    // stream_evicted_ticks_total
	rejectedTicks  *obs.CounterVec // stream_rejected_ticks_total{reason}
	gapFilledTicks *obs.Counter    // stream_gap_filled_ticks_total
	refitsDeferred *obs.Counter    // stream_refits_deferred_total
	compactions    *obs.CounterVec // stream_compactions_total{reason}
}

// NewMetricsOn registers the registry metrics on reg.
func NewMetricsOn(reg *obs.Registry) *Metrics {
	return &Metrics{
		models: reg.Gauge("registry_models",
			"Models indexed by the registry (loaded or evicted)."),
		loaded: reg.Gauge("registry_models_loaded",
			"Models currently resident in memory."),
		streams: reg.Gauge("registry_streams",
			"Named incremental streams."),
		evictions: reg.Counter("registry_evictions_total",
			"Models evicted from memory by the LRU bound."),
		refits: reg.Counter("registry_stream_refits_total",
			"Incremental stream refits performed."),
		persistErrors: reg.Counter("registry_persist_errors_total",
			"Failed writes of model, stream or manifest files."),
		corrupt: reg.Counter("registry_corrupt_total",
			"Persisted files found missing or corrupt (checksum mismatch, bad JSON) and quarantined."),
		appendSec: reg.HistogramVec("stream_append_seconds",
			"Stream append latency in seconds, split by maintenance path: "+
				"\"incremental\" for O(tail) appends, \"full\" when a batch "+
				"refit ran (forced refits included). With a data dir it "+
				"includes making the append durable: one fsynced tick-log "+
				"record, or a full snapshot on the rare compacting append "+
				"(stream_compactions_total).",
			obs.DefBuckets(), "path"),
		evictedTicks: reg.Counter("stream_evicted_ticks_total",
			"Ticks evicted off stream fronts by the retention horizon."),
		rejectedTicks: reg.CounterVec("stream_rejected_ticks_total",
			"Appended ticks refused or idempotently dropped, by reason: "+
				"\"duplicate\" for replayed/late ticks, \"gap_too_large\" "+
				"for positioned appends past the gap limit.", "reason"),
		gapFilledTicks: reg.Counter("stream_gap_filled_ticks_total",
			"Missing ticks synthesised to bridge forward gaps in positioned appends."),
		refitsDeferred: reg.Counter("stream_refits_deferred_total",
			"Due stream refits deferred by the concurrency gate."),
		compactions: reg.CounterVec("stream_compactions_total",
			"Stream snapshots written in place of a tick-log record, by "+
				"reason: \"create\", \"options\" (refit_every, mode or "+
				"retention changed), \"refit\" (a refit ran, failed or was "+
				"deferred), \"size\" (the log reached its snapshot's size), "+
				"\"boot\" (first change after a restart), \"write_error\" "+
				"(a failed write closed the log).", "reason"),
	}
}

func (m *Metrics) setModelSizes(models, loaded int) {
	if m == nil {
		return
	}
	m.models.Set(float64(models))
	m.loaded.Set(float64(loaded))
}

func (m *Metrics) setStreams(n int) {
	if m == nil {
		return
	}
	m.streams.Set(float64(n))
}

func (m *Metrics) eviction() {
	if m == nil {
		return
	}
	m.evictions.Inc()
}

func (m *Metrics) streamRefit() {
	if m == nil {
		return
	}
	m.refits.Inc()
}

func (m *Metrics) persistError() {
	if m == nil {
		return
	}
	m.persistErrors.Inc()
}

func (m *Metrics) streamAppend(path string, d time.Duration) {
	if m == nil {
		return
	}
	m.appendSec.With(path).Observe(d.Seconds())
}

func (m *Metrics) corruptFile() {
	if m == nil {
		return
	}
	m.corrupt.Inc()
}

func (m *Metrics) streamEvicted(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.evictedTicks.Add(float64(n))
}

func (m *Metrics) streamRejected(reason string, n int) {
	if m == nil || n <= 0 {
		return
	}
	m.rejectedTicks.With(reason).Add(float64(n))
}

func (m *Metrics) streamGapFilled(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.gapFilledTicks.Add(float64(n))
}

func (m *Metrics) streamRefitDeferred() {
	if m == nil {
		return
	}
	m.refitsDeferred.Inc()
}

func (m *Metrics) streamCompaction(reason string) {
	if m == nil {
		return
	}
	m.compactions.With(reason).Inc()
}
