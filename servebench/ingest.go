package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"dspot/internal/registry"
	"dspot/internal/stats"
)

const (
	// streams is how many streams an ingest workload appends to.
	streams = 4
	// horizon is the length of every stream forecast read.
	horizon = 13
	// streamRefitEvery is the refit cadence every stream is created with:
	// far beyond any run, so that no consolidating refit falls in the timed
	// phase (README, Noise).
	streamRefitEvery = 1_000_000
	// prefix is the length of a stream's first append, which cold-fits it
	// on two yearly cycles; a second append then fills it up to retention.
	prefix = 104
)

// ingestConfig shapes one ingest workload.
type ingestConfig struct {
	retention int
	// readEvery makes every readEvery-th timed operation a forecast read.
	readEvery int
	// refitRounds is how many rounds of forced refits, one per stream, a
	// traced run makes after the timed phase: the refit path timed at fixed
	// points.
	refitRounds int
	// persistent puts the registry on a data dir.
	persistent bool
	// check is the operation count at which work counts are recorded.
	check int
}

// ingestDisk: every append rewrites the whole retained window to the data
// dir, and no consolidating refit falls in the run, so persistence is
// nearly all of a request and fitting none of it. One operation in 32 is
// a forecast read, a few per cent of the run's time, so that forecasts are
// timed and scored at stream positions spread over the whole run.
var ingestDisk = ingestConfig{
	retention: 2000, readEvery: 32, persistent: true, check: 8192,
}

// ingestReadMem: an in-memory registry and a short window, with one
// operation in three a forecast read. Inline refit times vary 2-5x with the
// window's content (0.1-7.7 s each on a 2-vCPU Xeon VM), which made
// throughput differ 3x between seeds, so the timed phase has none; the
// traced run times forced refits after it instead.
var ingestReadMem = ingestConfig{
	retention: 312, readEvery: 3, refitRounds: 5, check: 3000,
}

// ingest drives single-tick appends round-robin over a few streams.
type ingest struct {
	cfg            ingestConfig
	series         []*series
	heads          []int64 // ticks sent to each stream
	nAppend, nRead int
}

func newIngest(seed int64, cfg ingestConfig) *ingest {
	in := &ingest{cfg: cfg, heads: make([]int64, streams)}
	for k := 0; k < streams; k++ {
		in.series = append(in.series, newSeries(seed, k, cfg.retention))
	}
	return in
}

func (in *ingest) persistent() bool { return in.cfg.persistent }
func (in *ingest) checkpoint() int  { return in.cfg.check }

// setups: a set-up is some 1.3 s, so five spread over the run give
// setup_s without making a run much longer than its timed phase.
func (*ingest) setups() int { return 5 }

func streamID(k int) string { return "s" + strconv.Itoa(k) }

// seedAppends are the two set-up appends of stream k.
func (in *ingest) seedAppends(k int) [][]float64 {
	s := in.series[k]
	return [][]float64{s.span(0, prefix), s.span(prefix, in.cfg.retention)}
}

// createOptions are the stream options the set-up appends send, as the
// append handler turns its query into registry.AppendOptions.
func (in *ingest) createOptions() registry.AppendOptions {
	return registry.AppendOptions{Mode: "incremental", Retention: in.cfg.retention, RefitEvery: streamRefitEvery}
}

func (in *ingest) createQuery() string {
	return fmt.Sprintf("?mode=incremental&retention=%d&refit_every=%d", in.cfg.retention, streamRefitEvery)
}

func appendBody(values []float64) []byte {
	var b strings.Builder
	b.WriteString(`{"values":[`)
	for i, v := range values {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	b.WriteString("]}")
	return []byte(b.String())
}

// checkHead verifies the head an append or status answered.
func (in *ingest) checkHead(k int, st registry.StreamStatus) error {
	if st.Head != in.heads[k] {
		return fmt.Errorf("stream %s: head %d after %d ticks sent", streamID(k), st.Head, in.heads[k])
	}
	return nil
}

func (in *ingest) setupHTTP(s *stack) error {
	for k := range in.series {
		for i, vals := range in.seedAppends(k) {
			q := ""
			if i == 0 {
				q = in.createQuery()
			}
			var st registry.StreamStatus
			if err := s.cl.call("POST", "/v1/streams/"+streamID(k)+"/append"+q, appendBody(vals), &st); err != nil {
				return err
			}
			in.heads[k] += int64(len(vals))
			if err := in.checkHead(k, st); err != nil {
				return err
			}
		}
	}
	return nil
}

// next returns whether timed operation i is a read, and its stream.
func (in *ingest) next(i int) (read bool, k int) {
	if i%in.cfg.readEvery == in.cfg.readEvery-1 {
		k = in.nRead % streams
		in.nRead++
		return true, k
	}
	k = in.nAppend % streams
	in.nAppend++
	return false, k
}

func (in *ingest) opHTTP(i int, s *stack, sm *samples, w *work) error {
	read, k := in.next(i)
	if read {
		return in.readHTTP(k, s, sm)
	}
	v := in.series[k].at(int(in.heads[k]))
	var st registry.StreamStatus
	t0 := time.Now()
	if err := s.cl.call("POST", "/v1/streams/"+streamID(k)+"/append", appendBody([]float64{v}), &st); err != nil {
		return err
	}
	sm.appends.add(int64(time.Since(t0)))
	in.heads[k]++
	sm.ticks++
	w.addAppend(k, st.Head, st.Refitted)
	return in.checkHead(k, st)
}

// readHTTP reads stream k's forecast and scores it against the ticks the
// generator will send next.
func (in *ingest) readHTTP(k int, s *stack, sm *samples) error {
	var fc struct {
		ID       string    `json:"id"`
		Horizon  int       `json:"horizon"`
		Forecast []float64 `json:"forecast"`
	}
	path := fmt.Sprintf("/v1/streams/%s/forecast?horizon=%d", streamID(k), horizon)
	t0 := time.Now()
	if err := s.cl.call("GET", path, nil, &fc); err != nil {
		return err
	}
	sm.forecast.add(int64(time.Since(t0)))
	if fc.ID != streamID(k) || fc.Horizon != horizon {
		return fmt.Errorf("forecast of %s answered stream %q, horizon %d", streamID(k), fc.ID, fc.Horizon)
	}
	if err := checkFinite("forecast of "+streamID(k), fc.Forecast, horizon); err != nil {
		return err
	}
	h := int(in.heads[k])
	next := in.series[k].span(h, h+horizon)
	if peak := stats.Max(next); peak > 0 {
		sm.fcNRMSE += stats.RMSE(next, fc.Forecast) / peak
		sm.fcReads++
	}
	return nil
}

func (in *ingest) afterHTTP(s *stack, sm *samples, t *tally, w *work, traced bool) {
	for r := 0; traced && r < in.cfg.refitRounds; r++ {
		for k := range in.series {
			var st registry.StreamStatus
			err := s.cl.call("POST", "/v1/streams/"+streamID(k)+"/refit", nil, &st)
			if err == nil {
				err = in.checkRefit(k, st, w)
			}
			t.record(err)
		}
	}
	for k := range in.series {
		var st registry.StreamStatus
		err := s.cl.call("GET", "/v1/streams/"+streamID(k), nil, &st)
		if err == nil {
			err = in.checkHead(k, st)
		}
		t.record(err)
	}
}

func (in *ingest) setupDirect(st *store, rec *recorder) error {
	ctx := context.Background()
	for k := range in.series {
		for i, vals := range in.seedAppends(k) {
			opts := registry.AppendOptions{}
			if i == 0 {
				opts = in.createOptions()
			}
			status, err := st.reg.AppendStream(ctx, streamID(k), vals, opts)
			if err != nil {
				return err
			}
			in.heads[k] += int64(len(vals))
			if err := in.checkHead(k, status); err != nil {
				return err
			}
		}
	}
	return nil
}

func (in *ingest) opDirect(i int, st *store, rec *recorder, w *work) error {
	read, k := in.next(i)
	if read {
		return in.readDirect(k, st, rec)
	}
	v := in.series[k].at(int(in.heads[k]))
	sp := rec.begin("registry.append", 0)
	rec.setFSParent(sp)
	status, err := st.reg.AppendStream(context.Background(), streamID(k), []float64{v}, registry.AppendOptions{})
	rec.setFSParent(0)
	name := ""
	if status.Refitted {
		name = "registry.refit"
	}
	rec.end(sp, name)
	if err != nil {
		return err
	}
	in.heads[k]++
	w.addAppend(k, status.Head, status.Refitted)
	return in.checkHead(k, status)
}

func (in *ingest) readDirect(k int, st *store, rec *recorder) error {
	sp := rec.begin("registry.stream_forecast", 0)
	fc, err := st.reg.StreamForecast(streamID(k), horizon)
	rec.end(sp, "")
	if err != nil {
		return err
	}
	return checkFinite("forecast of "+streamID(k), fc, horizon)
}

func (in *ingest) afterDirect(st *store, rec *recorder, t *tally, w *work) {
	for r := 0; r < in.cfg.refitRounds; r++ {
		for k := range in.series {
			sp := rec.begin("registry.refit_stream", 0)
			status, err := st.reg.RefitStream(context.Background(), streamID(k))
			rec.end(sp, "")
			if err == nil {
				err = in.checkRefit(k, status, w)
			}
			t.record(err)
		}
	}
}

// checkRefit verifies the status a forced refit of stream k answered and
// counts the refit.
func (in *ingest) checkRefit(k int, st registry.StreamStatus, w *work) error {
	if !st.Refitted {
		return fmt.Errorf("stream %s: forced refit answered refitted=false", streamID(k))
	}
	w.Refits++
	return in.checkHead(k, st)
}

// endToEnd reports appends as the workload's writes, and the NRMSE of its
// served forecasts as its model quality.
func (in *ingest) endToEnd(sm *samples, m *metricSet) {
	appends, forecasts := ms(sm.appends.ns()), ms(sm.forecast.ns())
	m.addPct("write_ms_p50", "ms", appends, 0.5, false)
	m.addUngated("write_ms_p90", "ms", appends, 0.9)
	m.addUngated("write_ms_p99", "ms", appends, 0.99)
	// The median second rather than the whole run's mean: a host that
	// steals the CPU for a few seconds moves the mean and not the median.
	// Steal that lasts minutes moves every second, so the metric stays out
	// of the result line, like the tail percentiles (README, Noise).
	m.addUngated("ingest_ticks_per_s", "1/s", sm.rates, 0.5)
	m.addPct("forecast_ms_p50", "ms", forecasts, 0.5, false)
	m.addUngated("forecast_ms_p99", "ms", forecasts, 0.99)
	if sm.fcReads > 0 {
		m.add("model_nrmse", "ratio", sm.fcNRMSE/float64(sm.fcReads), sm.fcReads)
	}
}
