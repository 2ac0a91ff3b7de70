package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/url"
	"time"

	"dspot/internal/core"
	"dspot/internal/dataset"
	"dspot/internal/engine"
	"dspot/internal/jobs"
	"dspot/internal/service"
	"dspot/internal/stats"
	"dspot/internal/tensor"
)

const (
	// pollEvery is the fixed interval at which the client polls a job.
	pollEvery = 2 * time.Millisecond
	// modelSlots bounds the stored models: job i stores model m<i%slots>,
	// so the registry and its manifest stay the same size all run long.
	modelSlots = 16
)

// forecastReads are the stored-model reads made after each job: keyword
// index (modulo the job's keywords) and horizon.
var forecastReads = []struct{ kw, h int }{{0, 13}, {1, 26}, {0, 52}}

// fitJobs submits deck tensors as async fit jobs, polls each to completion
// and reads the stored model back.
type fitJobs struct {
	seed   int64
	warm   deckJob // the set-up's warm-up job, made before set-up is timed
	stalls int     // LM stalls over the direct replay's jobs
}

func (*fitJobs) persistent() bool { return true }
func (*fitJobs) checkpoint() int  { return 48 }

// setups: one warm-up job is some 0.05 s, and the speed of fits drifts in
// phases of seconds, so 21 set-ups spread over the run give setup_s.
func (*fitJobs) setups() int { return 21 }

func modelID(i int) string {
	if i < 0 {
		return "warmup"
	}
	return fmt.Sprintf("m%02d", i%modelSlots)
}

func (f *fitJobs) setupHTTP(s *stack) error {
	_, _, err := submitAndWait(s.cl, f.warm, modelID(-1))
	return err
}

// submitAndWait posts one job and polls it until it ends, returning the
// time from the POST to the poll that saw it end, and its result.
func submitAndWait(cl *client, job deckJob, id string) (time.Duration, service.FitJobResult, error) {
	var res service.FitJobResult
	t0 := time.Now()
	var acc struct {
		JobID   string `json:"job_id"`
		ModelID string `json:"model_id"`
	}
	if err := cl.call("POST", "/v1/jobs/fit?model_id="+id, job.csv, &acc); err != nil {
		return 0, res, err
	}
	if acc.JobID == "" || acc.ModelID != id {
		return 0, res, fmt.Errorf("job submit answered %+v for model %s", acc, id)
	}
	for {
		time.Sleep(pollEvery)
		var snap struct {
			State  jobs.State      `json:"state"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := cl.call("GET", "/v1/jobs/"+acc.JobID, nil, &snap); err != nil {
			return 0, res, err
		}
		if !snap.State.Terminal() {
			continue
		}
		elapsed := time.Since(t0)
		if snap.State != jobs.StateDone {
			return 0, res, fmt.Errorf("job %s ended %s: %s", acc.JobID, snap.State, snap.Error)
		}
		if err := json.Unmarshal(snap.Result, &res); err != nil {
			return 0, res, fmt.Errorf("job %s result: %w", acc.JobID, err)
		}
		if res.ModelID != id {
			return 0, res, fmt.Errorf("job %s stored model %q, want %q", acc.JobID, res.ModelID, id)
		}
		return elapsed, res, nil
	}
}

func (f *fitJobs) opHTTP(i int, s *stack, sm *samples, w *work) error {
	job := deckJobAt(f.seed, i)
	id := modelID(i)
	elapsed, res, err := submitAndWait(s.cl, job, id)
	if err != nil {
		return err
	}
	sm.fit = append(sm.fit, int64(elapsed))
	w.addJob(res.LMIterations, res.ShocksTried, res.ShocksAccepted)

	var raw []byte
	if err := s.cl.call("GET", "/v1/models/"+id, nil, &raw); err != nil {
		return err
	}
	m, err := decodeModel(raw)
	if err != nil {
		return fmt.Errorf("model %s: %w", id, err)
	}
	nrmse, err := fitNRMSE(m, job.x)
	if err != nil {
		return fmt.Errorf("model %s: %w", id, err)
	}
	sm.nrmse = append(sm.nrmse, nrmse)

	for _, rd := range forecastReads {
		kw := job.x.Keywords[rd.kw%job.x.D()]
		path := fmt.Sprintf("/v1/models/%s/forecast?keyword=%s&horizon=%d", id, url.QueryEscape(kw), rd.h)
		var fc service.ForecastJSON
		t0 := time.Now()
		if err := s.cl.call("GET", path, nil, &fc); err != nil {
			return err
		}
		sm.forecast.add(int64(time.Since(t0)))
		if err := checkFinite("forecast of "+id, fc.Forecast, rd.h); err != nil {
			return err
		}
	}
	return nil
}

func (*fitJobs) afterHTTP(*stack, *samples, *tally, *work, bool) {}

// decodeModel decodes a model body with the engine its "engine" field
// names, as clients of the service do, and validates it.
func decodeModel(raw []byte) (engine.Model, error) {
	var probe struct {
		Engine string `json:"engine"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, err
	}
	m, err := engine.Decode(probe.Engine, bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	return m, m.Validate()
}

// fitNRMSE is the mean over keywords of the RMSE of the model's simulation
// against the submitted tensor's global sequence, divided by its peak.
func fitNRMSE(m engine.Model, x *tensor.Tensor) (float64, error) {
	e, err := engine.Lookup(m.EngineName())
	if err != nil {
		return 0, err
	}
	var sum float64
	n := 0
	for k, kw := range x.Keywords {
		obs := x.Global(k)
		est, err := e.Simulate(m, kw, x.N())
		if err != nil {
			return 0, err
		}
		if peak := stats.Max(obs); peak > 0 {
			sum += stats.RMSE(obs, est) / peak
			n++
		}
	}
	if n == 0 {
		return 0, errors.New("no keyword with a positive peak")
	}
	v := sum / float64(n)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("NRMSE is %v", v)
	}
	return v, nil
}

func (f *fitJobs) setupDirect(st *store, rec *recorder) error {
	_, err := fitDirect(f.warm, modelID(-1), st, rec)
	return err
}

// fitDirect makes the calls the job handlers make, in their order: parse
// and validate the CSV, submit a job whose Func fits the global and local
// stages and stores the model, then poll the job until it ends. It returns
// the fit's progress report.
func fitDirect(job deckJob, id string, st *store, rec *recorder) (*core.FitReport, error) {
	sp := rec.begin("dataset.read_csv", 0)
	x, err := dataset.ReadCSV(bytes.NewReader(job.csv))
	if err == nil {
		err = x.Validate()
	}
	rec.end(sp, "")
	if err != nil {
		return nil, fmt.Errorf("parsing job tensor: %w", err)
	}
	trace := core.NewFitTrace()
	wait := rec.begin("jobs.wait", 0)
	jobID, err := st.eng.SubmitCtx(context.Background(), "fit", func(ctx context.Context) (any, error) {
		rec.end(wait, "")
		run := rec.begin("jobs.run", 0)
		defer rec.end(run, "")
		opts := core.FitOptions{Workers: 1, Prevalidated: true, Context: ctx, Progress: trace.Hook()}
		sp := rec.begin("core.global", run)
		m, err := core.FitGlobal(x, opts)
		rec.end(sp, "")
		if err != nil {
			return nil, err
		}
		sp = rec.begin("core.local", run)
		err = core.FitLocal(x, m, opts)
		rec.end(sp, "")
		if err != nil {
			return nil, err
		}
		sp = rec.begin("registry.put", run)
		rec.setFSParent(sp)
		_, err = st.reg.Put(id, engine.NewDspotModel(m))
		rec.setFSParent(0)
		rec.end(sp, "")
		return nil, err
	})
	if err != nil {
		return nil, fmt.Errorf("submitting job: %w", err)
	}
	for {
		time.Sleep(pollEvery)
		snap, err := st.eng.Get(jobID)
		if err != nil {
			return nil, err
		}
		if !snap.State.Terminal() {
			continue
		}
		if snap.State != jobs.StateDone {
			return nil, fmt.Errorf("job %s ended %s: %s", jobID, snap.State, snap.Error)
		}
		return trace.Report(), nil
	}
}

func (f *fitJobs) opDirect(i int, st *store, rec *recorder, w *work) error {
	job := deckJobAt(f.seed, i)
	id := modelID(i)
	rep, err := fitDirect(job, id, st, rec)
	if err != nil {
		return err
	}
	w.addJob(rep.LMIterations, rep.ShocksTried, rep.ShocksAccepted)
	f.stalls += rep.LMStalls
	for _, rd := range forecastReads {
		sp := rec.begin("registry.get", 0)
		m, err := st.reg.Get(id)
		rec.end(sp, "")
		if err != nil {
			return err
		}
		e, err := engine.Lookup(m.EngineName())
		if err != nil {
			return err
		}
		sp = rec.begin("engine.forecast", 0)
		fc, err := e.Forecast(m, job.x.Keywords[rd.kw%job.x.D()], rd.h)
		rec.end(sp, "")
		if err != nil {
			return err
		}
		if err := checkFinite("forecast of "+id, fc, rd.h); err != nil {
			return err
		}
	}
	return nil
}

func (*fitJobs) afterDirect(*store, *recorder, *tally, *work) {}

// endToEnd reports over the jobs of whole deck cycles only, so that every
// run scores the same mix of templates however far it got. A job is the
// workload's write, and the model it stored scores its fit.
func (*fitJobs) endToEnd(sm *samples, m *metricSet) {
	n := wholeCycles(min(len(sm.fit), len(sm.nrmse)))
	fits := ms(sm.fit[:n])
	m.addPct("write_ms_p50", "ms", fits, 0.5, false)
	m.addUngated("write_ms_p90", "ms", fits, 0.9)
	if n > 0 {
		m.add("model_nrmse", "ratio", mean(sm.nrmse[:n]), n)
	}
	fc := ms(sm.forecast.ns())
	m.addPct("forecast_ms_p50", "ms", fc[:min(len(fc), n*len(forecastReads))], 0.5, false)
}

// wholeCycles is how many of n jobs make up whole cycles of the deck: all
// of them while there is less than one cycle.
func wholeCycles(n int) int {
	if n < deckTemplates {
		return n
	}
	return n - n%deckTemplates
}

// fitCounts adds the per-fit counts of the direct replay's w.Ops jobs,
// which stalled LM stalls times.
func fitCounts(w work, stalls int, m *metricSet) {
	jobsRun := float64(w.Ops)
	per := func(v int) float64 {
		if jobsRun == 0 {
			return 0
		}
		return float64(v) / jobsRun
	}
	m.add("core.shocks_tried_per_fit", "count", per(w.ShocksTried), w.Ops)
	ratio := 0.0
	if w.ShocksTried > 0 {
		ratio = float64(w.ShocksAccepted) / float64(w.ShocksTried)
	}
	m.add("core.shock_accept_ratio", "ratio", ratio, w.ShocksTried)
	m.add("lm.iters_per_fit", "count", per(w.LMIterations), w.Ops)
	m.add("lm.stalls_per_fit", "count", per(stalls), w.Ops)
}
