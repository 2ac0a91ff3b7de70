package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dspot/internal/faultfs"
)

// openServed sets up one served stack for cfg's workload: a fresh store,
// the stack, then the workload's seeding over HTTP. It returns the workload
// state the timed phase continues from and the set-up time, which excludes
// making the inputs.
func openServed(cfg config, env *envRecord, tag string, rec *recorder) (workload, *stack, time.Duration, error) {
	wl, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	var dir string
	var inner faultfs.FS
	if wl.persistent() {
		dir, inner = newDataDir(cfg, env, tag)
	}
	t0 := time.Now()
	st, err := openStore(dir, inner, rec)
	if err != nil {
		return nil, nil, 0, err
	}
	s := startStack(st, rec, cfg.wrap)
	if err := wl.setupHTTP(s); err != nil {
		s.close()
		return nil, nil, 0, fmt.Errorf("set-up of %s: %w", cfg.workload, err)
	}
	return wl, s, time.Since(t0), nil
}

// replay is what one pass over the workload's operations produced.
type replay struct {
	sm         *samples
	work       work
	checkpoint *work
	tally      tally
}

// replayHTTP runs operations over HTTP for seconds of timed wall time, then
// the workload's untimed operations and checks. Work and bytes count from
// here on. The timed phase pauses pauses times, at evenly spaced points,
// for a call of between; the pauses are not timed, and the garbage they
// leave is collected before timing resumes, as it is before timing starts.
func replayHTTP(wl workload, s *stack, rec *recorder, seconds, pauses int, between func() error) (replay, error) {
	r := replay{sm: newSamples()}
	base := s.bytesWritten()
	runtime.GC()
	heap := startHeapSampler()
	timed := time.Duration(seconds) * time.Second
	start := time.Now()
	var paused time.Duration
	made := 0 // pauses made
	pause := func() error {
		t0 := time.Now()
		heap.pause()
		err := between()
		runtime.GC()
		heap.resume()
		paused += time.Since(t0)
		made++
		return err
	}
	window, windowTicks := start, 0
	for i := 0; ; i++ {
		now := time.Now()
		if d := now.Sub(window); d >= time.Second {
			r.sm.rates = append(r.sm.rates, float64(r.sm.ticks-windowTicks)/d.Seconds())
			window, windowTicks = now, r.sm.ticks
		}
		elapsed := now.Sub(start) - paused
		if elapsed >= timed {
			break
		}
		if made < pauses && elapsed >= timed*time.Duration(made+1)/time.Duration(pauses+1) {
			if err := pause(); err != nil {
				heap.finish()
				return r, err
			}
			// The second in progress is dropped from the rates.
			window, windowTicks = time.Now(), r.sm.ticks
		}
		rec.setOp(i)
		r.tally.record(wl.opHTTP(i, s, r.sm, &r.work))
		r.work.Ops = i + 1
		r.work.Bytes = s.bytesWritten() - base
		if r.work.Ops == wl.checkpoint() {
			cp := r.work.clone()
			r.checkpoint = &cp
		}
	}
	r.sm.heapPeak = heap.finish()
	for made < pauses {
		if err := pause(); err != nil {
			return r, err
		}
	}
	rec.setOp(r.work.Ops)
	wl.afterHTTP(s, r.sm, &r.tally, &r.work, rec != nil)
	return r, nil
}

// replayDirect makes the calls of n operations directly on the layers.
func replayDirect(wl workload, st *store, rec *recorder, n int) (replay, int64) {
	var r replay
	base, baseOps := st.bytesWritten(), st.fsOps()
	for i := 0; i < n; i++ {
		rec.setOp(i)
		r.tally.record(wl.opDirect(i, st, rec, &r.work))
		r.work.Ops = i + 1
	}
	r.work.Bytes = st.bytesWritten() - base
	fsOps := st.fsOps() - baseOps
	rec.setOp(n)
	wl.afterDirect(st, rec, &r.tally, &r.work)
	return r, fsOps
}

// plainRun is the untraced run: set up, drive the timed phase and report
// the end-to-end metrics. The workload's other set-ups are spread over the
// timed phase, each on a fresh stack that is closed straight after, so that
// setup_s, their median, samples the whole run and not only its start.
func plainRun(cfg config) (*record, error) {
	rec := &record{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Env: newEnv(cfg.seed)}
	wl, s, d, err := openServed(cfg, &rec.Env, "setup0", nil)
	if err != nil {
		return nil, err
	}
	setups := []float64{d.Seconds()}
	another := func() error {
		_, st, d, err := openServed(cfg, &rec.Env, fmt.Sprint("setup", len(setups)), nil)
		if err != nil {
			return err
		}
		st.close()
		setups = append(setups, d.Seconds())
		return nil
	}
	r, err := replayHTTP(wl, s, nil, cfg.seconds, wl.setups()-1, another)
	s.close()
	if err != nil {
		r.sm.free()
		return nil, err
	}

	m := endToEnd(wl, r.sm, setups)
	r.sm.free()
	rec.SetupRuns = setups
	rec.finish(m, r.tally, r.work, r.checkpoint)
	return rec, nil
}

// endToEnd is every end-to-end metric of an untraced run: the set-up
// time, the workload's own metrics and the peak heap.
func endToEnd(wl workload, sm *samples, setups []float64) metricSet {
	var m metricSet
	m.add("setup_s", "s", median(setups), len(setups))
	wl.endToEnd(sm, &m)
	m.add("peak_heap_mb", "MiB", sm.heapPeak, 1)
	return m
}

// finish fills in the outcome. A run is correct when it attempted
// operations, none failed, and every metric is finite.
func (rec *record) finish(m metricSet, t tally, w work, cp *work) {
	rec.Metrics, rec.Notes = m.entries, m.notes
	rec.Attempted, rec.Failed, rec.Errors = t.attempted, t.failed, t.errs
	rec.Work, rec.Checkpoint = w, cp
	for _, e := range m.entries {
		if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
			rec.Failed++
			rec.Errors = append(rec.Errors, fmt.Sprintf("metric %s is %v", e.Name, e.Value))
		}
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
}

// tracedRun replays the workload twice from the same seed: over HTTP with
// the handler and the file system timed, then directly on the layers for
// the same number of operations. The two replays must do the same work.
func tracedRun(cfg config) (*record, error) {
	rec := &record{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: true, Env: newEnv(cfg.seed)}

	recH := newRecorder()
	wl, s, setup, err := openServed(cfg, &rec.Env, "http", recH)
	if err != nil {
		return nil, err
	}
	h, err := replayHTTP(wl, s, recH, cfg.seconds, 0, nil)
	s.close()
	if err != nil {
		return nil, err
	}
	spansH, droppedH := recH.snapshot()
	recH.free()

	recD := newRecorder()
	wlD, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	var dir string
	var inner faultfs.FS
	if wlD.persistent() {
		dir, inner = newDataDir(cfg, &rec.Env, "direct")
	}
	st, err := openStore(dir, inner, recD)
	if err != nil {
		return nil, err
	}
	if err := wlD.setupDirect(st, recD); err != nil {
		st.close()
		return nil, fmt.Errorf("direct set-up of %s: %w", cfg.workload, err)
	}
	d, fsOps := replayDirect(wlD, st, recD, h.work.Ops)
	st.close()
	spansD, droppedD := recD.snapshot()
	recD.free()

	t := h.tally
	t.add(d.tally)
	if diff := h.work.diff(d.work); diff != "" {
		t.failed++
		t.errs = append(t.errs, "HTTP and direct replays did different work: "+diff)
	}

	m := perLayer(wlD, statsOf(spansH), statsOf(spansD), d.work, fsOps, rec.Env.Persist)
	if n := droppedH + droppedD; n > 0 {
		m.notes = append(m.notes, fmt.Sprintf("%d spans dropped past %d per replay", n, maxSpans))
	}
	rec.finish(m, t, h.work, h.checkpoint)
	rec.DirectWork = &d.work
	rec.SelfMsP50 = selfP50(statsOf(spansH), statsOf(spansD))

	e2e := endToEnd(wl, h.sm, []float64{setup.Seconds()})
	h.sm.free()
	rec.TracedE2E = e2e.entries
	rec.Overhead = overhead(e2e.entries, filepath.Join(cfg.build, "runs",
		fmt.Sprintf("%s-seed%d-trace0.json", cfg.workload, cfg.seed)))

	rec.SpansFile = filepath.Join(cfg.build, "spans", fmt.Sprintf("%s-seed%d.csv", cfg.workload, cfg.seed))
	if err := writeSpans(rec.SpansFile, map[string][]span{"http": spansH, "direct": spansD}); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return rec, nil
}

// perLayer computes the per-layer metrics: service spans from the HTTP
// replay, everything else from the direct one. A layer the workload never
// crosses reports 0. The file-system call times are reported, outside the
// result line, only when the registry persisted through the kernel
// (persist "os"): through the in-memory fallback they would time the
// benchmark's own code.
func perLayer(wl workload, h, d spanStats, dw work, fsOps int64, persist string) metricSet {
	var m metricSet
	pct := func(name, unit string, ns []int64, q float64) {
		xs := ms(ns)
		if unit == "s" {
			xs = secs(ns)
		}
		m.addPct(name, unit, xs, q, true)
	}
	pct("service.job_submit_ms_p50", "ms", h.dur["service.job_submit"], 0.5)
	pct("service.append_ms_p50", "ms", h.dur["service.append"], 0.5)
	pct("service.append_ms_p99", "ms", h.dur["service.append"], 0.99)
	pct("service.forecast_ms_p50", "ms", h.dur["service.forecast"], 0.5)
	pct("dataset.read_csv_ms_p50", "ms", d.dur["dataset.read_csv"], 0.5)
	pct("jobs.wait_ms_p50", "ms", d.dur["jobs.wait"], 0.5)
	pct("core.global_s_p50", "s", d.dur["core.global"], 0.5)
	pct("core.local_s_p50", "s", d.dur["core.local"], 0.5)
	var fits work
	stalls := 0
	if fj, ok := wl.(*fitJobs); ok {
		fits, stalls = dw, fj.stalls
	}
	fitCounts(fits, stalls, &m)
	pct("engine.forecast_ms_p50", "ms", d.dur["engine.forecast"], 0.5)
	pct("registry.put_ms_p50", "ms", d.dur["registry.put"], 0.5)
	pct("registry.append_ms_p50", "ms", d.dur["registry.append"], 0.5)
	pct("registry.append_ms_p99", "ms", d.dur["registry.append"], 0.99)
	pct("registry.append_self_ms_p50", "ms", d.self["registry.append"], 0.5)
	// Refits: appends that refitted inline, and forced RefitStream calls.
	refits := append(append([]int64(nil), d.dur["registry.refit"]...), d.dur["registry.refit_stream"]...)
	pct("registry.refit_s_p50", "s", refits, 0.5)
	m.add("registry.refits", "count", float64(dw.Refits), dw.Refits)
	pct("registry.stream_forecast_ms_p50", "ms", d.dur["registry.stream_forecast"], 0.5)
	for _, op := range []string{"write", "sync", "rename"} {
		name := "faultfs." + op + "_ms_p50"
		switch persist {
		case "os":
			m.addUngated(name, "ms", ms(d.dur["faultfs."+op]), 0.5)
		case "memfs":
			m.notes = append(m.notes, name+" not reported: the registry persisted to the in-memory file system")
		}
	}
	appends := len(d.dur["registry.append"]) + len(d.dur["registry.refit"])
	jobsRun := len(d.dur["core.global"])
	per := func(v int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(v) / float64(n)
	}
	m.add("faultfs.bytes_per_append", "B", per(dw.Bytes, appends), appends)
	m.add("faultfs.ops_per_append", "count", per(fsOps, appends), appends)
	m.add("faultfs.bytes_per_job", "B", per(dw.Bytes, jobsRun), jobsRun)
	return m
}

// selfP50 is the median self time of every span name, in milliseconds.
func selfP50(h, d spanStats) map[string]float64 {
	out := map[string]float64{}
	for _, st := range []spanStats{h, d} {
		for name, ns := range st.self {
			if v, ok := percentile(ms(ns), 0.5); ok {
				out[name] = v
			}
		}
	}
	return out
}

// overhead compares traced end-to-end numbers with the untraced record of
// the same workload and seed, when one exists: traced/untraced - 1.
func overhead(traced []entry, untracedPath string) map[string]float64 {
	data, err := os.ReadFile(untracedPath)
	if err != nil {
		return nil
	}
	var plain record
	if json.Unmarshal(data, &plain) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, t := range traced {
		for _, u := range plain.Metrics {
			if u.Name == t.Name && u.Value != 0 {
				out[t.Name] = t.Value/u.Value - 1
			}
		}
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
