package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dspot/internal/core"
	"dspot/internal/dataset"
	"dspot/internal/engine"
	"dspot/internal/jobs"
	"dspot/internal/registry"
	"dspot/internal/tensor"
)

// statefulServer builds a server with a registry (persisted under dir when
// non-empty) and a jobs engine, plus the pieces for restart tests.
func statefulServer(t *testing.T, dir string, jopts jobs.Options) (*httptest.Server, *registry.Registry, *jobs.Engine) {
	t.Helper()
	reg, err := registry.Open(registry.Options{
		DataDir: dir,
		StreamFit: core.FitOptions{
			Workers: 1, DisableGrowth: true, MaxShocks: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if jopts.Workers == 0 {
		jopts.Workers = 2
	}
	engine := jobs.New(jopts)
	t.Cleanup(engine.Close)
	srv := httptest.NewServer((&Server{
		Workers:  1,
		Registry: reg,
		Jobs:     engine,
	}).Handler())
	t.Cleanup(srv.Close)
	return srv, reg, engine
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("unmarshal %s: %v: %s", url, err, data)
		}
	}
	return resp
}

func doRequest(t *testing.T, method, url string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

// submitFit posts a fit job and returns (jobID, modelID).
func submitFit(t *testing.T, base, csv, query string) (string, string) {
	t.Helper()
	resp, body := post(t, base+"/v1/jobs/fit?global_only=1&no_growth=1"+query,
		"text/csv", csv)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("jobs/fit status %d: %s", resp.StatusCode, body)
	}
	var acc struct {
		JobID   string `json:"job_id"`
		ModelID string `json:"model_id"`
	}
	if err := json.Unmarshal([]byte(body), &acc); err != nil {
		t.Fatalf("unmarshal accept body: %v: %s", err, body)
	}
	if acc.JobID == "" || acc.ModelID == "" {
		t.Fatalf("accept body incomplete: %s", body)
	}
	return acc.JobID, acc.ModelID
}

// waitJob polls the job endpoint until the job is terminal.
func waitJob(t *testing.T, base, id string) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var snap jobs.Snapshot
		resp := getJSON(t, base+"/v1/jobs/"+id, &snap)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job get status %d", resp.StatusCode)
		}
		if snap.State.Terminal() {
			return snap
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobs.Snapshot{}
}

func TestJobFitLifecycleOverHTTP(t *testing.T) {
	srv, _, _ := statefulServer(t, "", jobs.Options{})
	csv := smallTensorCSV(t)

	jobID, modelID := submitFit(t, srv.URL, csv, "&model_id=grammy-v1")
	if modelID != "grammy-v1" {
		t.Fatalf("model id = %q", modelID)
	}
	snap := waitJob(t, srv.URL, jobID)
	if snap.State != jobs.StateDone {
		t.Fatalf("job = %+v", snap)
	}
	// Result round-trips through the snapshot as a JSON object.
	res, ok := snap.Result.(map[string]any)
	if !ok || res["model_id"] != "grammy-v1" {
		t.Fatalf("job result = %#v", snap.Result)
	}

	// Model endpoints serve the stored model.
	var list struct {
		Models []registry.Info `json:"models"`
	}
	if resp := getJSON(t, srv.URL+"/v1/models", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("models list status %d", resp.StatusCode)
	}
	if len(list.Models) != 1 || list.Models[0].ID != "grammy-v1" {
		t.Fatalf("models = %+v", list.Models)
	}
	var fc ForecastJSON
	if resp := getJSON(t, srv.URL+"/v1/models/grammy-v1/forecast?horizon=8", &fc); resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast status %d", resp.StatusCode)
	}
	if fc.Keyword != "grammy" || len(fc.Forecast) != 8 {
		t.Fatalf("forecast = %+v", fc)
	}
	var ev struct {
		Events []EventJSON `json:"events"`
	}
	if resp := getJSON(t, srv.URL+"/v1/models/grammy-v1/events", &ev); resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}

	// Unknown keyword on a stored model is a 400, not index 0.
	resp, _ := doRequest(t, http.MethodGet,
		srv.URL+"/v1/models/grammy-v1/forecast?keyword=nope")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown keyword status %d", resp.StatusCode)
	}

	// Cancel after completion conflicts; delete removes the model.
	if resp, _ := doRequest(t, http.MethodDelete, srv.URL+"/v1/jobs/"+jobID); resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel terminal job status %d", resp.StatusCode)
	}
	if resp, _ := doRequest(t, http.MethodDelete, srv.URL+"/v1/models/grammy-v1"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("model delete status %d", resp.StatusCode)
	}
	if resp, _ := doRequest(t, http.MethodGet, srv.URL+"/v1/models/grammy-v1"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted model status %d", resp.StatusCode)
	}
	if resp, _ := doRequest(t, http.MethodGet, srv.URL+"/v1/jobs/no-such-job"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d", resp.StatusCode)
	}
}

func TestJobFitValidation(t *testing.T) {
	srv, _, _ := statefulServer(t, "", jobs.Options{})
	if resp, body := post(t, srv.URL+"/v1/jobs/fit", "text/csv", "not,a\ntensor"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad tensor status %d: %s", resp.StatusCode, body)
	}
	if resp, body := post(t, srv.URL+"/v1/jobs/fit?model_id=.hidden", "text/csv",
		smallTensorCSV(t)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad model id status %d: %s", resp.StatusCode, body)
	}
}

func TestJobFitQueueFull(t *testing.T) {
	srv, _, engine := statefulServer(t, "", jobs.Options{Workers: 1, QueueDepth: 1})
	// Occupy the worker and fill the queue outside HTTP. Waiting for the
	// blocker to start matters: until the worker dequeues it, a queue slot
	// can still free up under the HTTP request.
	block := make(chan struct{})
	started := make(chan struct{})
	defer close(block)
	wait := func(ctx context.Context) (any, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil
	}
	if _, err := engine.Submit("blocker", func(ctx context.Context) (any, error) {
		close(started)
		return wait(ctx)
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := engine.Submit("filler", wait)
		if errors.Is(err, jobs.ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}
	resp, body := post(t, srv.URL+"/v1/jobs/fit", "text/csv", smallTensorCSV(t))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full-queue status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// The rejection is structured: reason, queue depth and a retry hint, not
	// just an error string.
	sr := shedBody(t, body)
	if sr.Reason != ShedQueueFull || sr.Error == "" {
		t.Fatalf("queue-full body %+v, want reason %q", sr, ShedQueueFull)
	}
	if sr.QueueDepth != 1 || sr.QueueCap != 1 || sr.RetryAfterSeconds < 1 {
		t.Fatalf("queue-full body %+v, want depth/cap 1/1 and a retry hint", sr)
	}
}

// TestRestartDurabilityOverHTTP is the acceptance path: fit through a job,
// bring up a fresh server over the same data dir, and require the identical
// forecast.
func TestRestartDurabilityOverHTTP(t *testing.T) {
	dir := t.TempDir()
	srv1, _, _ := statefulServer(t, dir, jobs.Options{})
	jobID, modelID := submitFit(t, srv1.URL, smallTensorCSV(t), "")
	if snap := waitJob(t, srv1.URL, jobID); snap.State != jobs.StateDone {
		t.Fatalf("job = %+v", snap)
	}
	var before ForecastJSON
	if resp := getJSON(t, srv1.URL+"/v1/models/"+modelID+"/forecast?horizon=26", &before); resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast status %d", resp.StatusCode)
	}
	srv1.Close()

	srv2, _, _ := statefulServer(t, dir, jobs.Options{})
	var after ForecastJSON
	if resp := getJSON(t, srv2.URL+"/v1/models/"+modelID+"/forecast?horizon=26", &after); resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast after restart status %d", resp.StatusCode)
	}
	if len(before.Forecast) != len(after.Forecast) {
		t.Fatalf("forecast lengths differ: %d vs %d", len(before.Forecast), len(after.Forecast))
	}
	for i := range before.Forecast {
		if before.Forecast[i] != after.Forecast[i] {
			t.Fatalf("forecast[%d] changed across restart: %g vs %g",
				i, before.Forecast[i], after.Forecast[i])
		}
	}
}

// streamBody renders n ticks of a positive weekly-ish cycle, with every
// missingEvery-th tick null.
func streamBody(n, offset, missingEvery int) string {
	vals := make([]string, n)
	for i := range vals {
		t := offset + i
		if missingEvery > 0 && t%missingEvery == 0 {
			vals[i] = "null"
			continue
		}
		v := 20 + 0.1*float64(t) + 8*math.Sin(2*math.Pi*float64(t)/13)
		vals[i] = fmt.Sprintf("%.4f", v)
	}
	return `{"values":[` + strings.Join(vals, ",") + `]}`
}

func TestStreamAppendOverHTTP(t *testing.T) {
	dir := t.TempDir()
	srv, _, _ := statefulServer(t, dir, jobs.Options{})

	// Under 8 observed ticks nothing fits: forecast conflicts. (The first
	// fit triggers on observation count, not the refit cadence.)
	resp, body := post(t, srv.URL+"/v1/streams/s1/append?refit_every=40",
		"application/json", streamBody(5, 0, 7))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d: %s", resp.StatusCode, body)
	}
	var status registry.StreamStatus
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatal(err)
	}
	if status.Len != 5 || status.Ready {
		t.Fatalf("status = %+v", status)
	}
	if resp, _ := doRequest(t, http.MethodGet, srv.URL+"/v1/streams/s1/forecast"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("unfitted forecast status %d", resp.StatusCode)
	}

	// Enough observations fit a model; forecasts flow.
	resp, body = post(t, srv.URL+"/v1/streams/s1/append",
		"application/json", streamBody(45, 5, 7))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatal(err)
	}
	if status.Len != 50 || !status.Ready || status.Refits < 1 {
		t.Fatalf("status after refit = %+v", status)
	}
	var fc struct {
		Forecast []float64 `json:"forecast"`
	}
	if resp := getJSON(t, srv.URL+"/v1/streams/s1/forecast?horizon=12", &fc); resp.StatusCode != http.StatusOK {
		t.Fatalf("stream forecast status %d", resp.StatusCode)
	}
	if len(fc.Forecast) != 12 {
		t.Fatalf("forecast length %d", len(fc.Forecast))
	}

	// The stream survives a restart over the same data dir.
	srv.Close()
	srv2, _, _ := statefulServer(t, dir, jobs.Options{})
	var list struct {
		Streams []registry.StreamStatus `json:"streams"`
	}
	if resp := getJSON(t, srv2.URL+"/v1/streams", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("streams list status %d", resp.StatusCode)
	}
	if len(list.Streams) != 1 || list.Streams[0].Len != 50 || !list.Streams[0].Ready {
		t.Fatalf("streams after restart = %+v", list.Streams)
	}
	if resp, _ := doRequest(t, http.MethodGet, srv2.URL+"/v1/streams/s1/forecast"); resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast after restart status %d", resp.StatusCode)
	}
	if resp, _ := doRequest(t, http.MethodDelete, srv2.URL+"/v1/streams/s1"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("stream delete status %d", resp.StatusCode)
	}
	if resp, _ := doRequest(t, http.MethodGet, srv2.URL+"/v1/streams/s1"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted stream status %d", resp.StatusCode)
	}
}

// TestStreamIncrementalOverHTTP drives the incremental maintenance surface
// end to end: mode selection on append, the mode/debt fields in the status
// JSON, and the on-demand consolidation endpoint.
func TestStreamIncrementalOverHTTP(t *testing.T) {
	srv, _, _ := statefulServer(t, "", jobs.Options{})

	resp, body := post(t, srv.URL+"/v1/streams/s1/append?refit_every=40&mode=incremental",
		"application/json", streamBody(50, 0, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d: %s", resp.StatusCode, body)
	}
	var status registry.StreamStatus
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatal(err)
	}
	if status.Mode != "incremental" || status.RefitEvery != 40 || !status.Ready {
		t.Fatalf("status = %+v, want a fitted incremental stream at cadence 40", status)
	}

	// Post-fit appends run on the incremental path and accrue refit debt.
	resp, body = post(t, srv.URL+"/v1/streams/s1/append",
		"application/json", streamBody(30, 50, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatal(err)
	}
	if status.Debt <= 0 || status.DebtLimit <= 0 {
		t.Fatalf("status = %+v, want pending debt below a positive limit", status)
	}

	// Forced consolidation clears the debt.
	resp, body = post(t, srv.URL+"/v1/streams/s1/refit", "application/json", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refit status %d: %s", resp.StatusCode, body)
	}
	var after registry.StreamStatus // fresh: debt is omitempty, 0 would keep the stale value
	if err := json.Unmarshal([]byte(body), &after); err != nil {
		t.Fatal(err)
	}
	if !after.Refitted || after.Debt != 0 {
		t.Fatalf("refit status = %+v, want refitted with debt 0", after)
	}
	if resp, body := post(t, srv.URL+"/v1/streams/ghost/refit", "application/json", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown stream refit status %d: %s", resp.StatusCode, body)
	}
}

func TestStreamAppendValidation(t *testing.T) {
	srv, _, _ := statefulServer(t, "", jobs.Options{})
	cases := []struct {
		name, url, body string
	}{
		{"empty values", "/v1/streams/s1/append", `{"values":[]}`},
		{"negative value", "/v1/streams/s1/append", `{"values":[1,-2]}`},
		{"bad json", "/v1/streams/s1/append", `{"values":`},
		{"bad refit_every", "/v1/streams/s1/append?refit_every=zero", `{"values":[1]}`},
		{"bad mode", "/v1/streams/s1/append?mode=turbo", `{"values":[1]}`},
		{"bad id", "/v1/streams/.dot/append", `{"values":[1]}`},
	}
	for _, tc := range cases {
		resp, body := post(t, srv.URL+tc.url, "application/json", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", tc.name, resp.StatusCode, body)
		}
	}
}

// TestConcurrentStatefulTraffic hammers one server with concurrent job
// submissions, stream appends, cancellations, and reads — the -race
// acceptance scenario.
func TestConcurrentStatefulTraffic(t *testing.T) {
	srv, _, _ := statefulServer(t, t.TempDir(),
		jobs.Options{Workers: 2, QueueDepth: 64})
	csv := smallTensorCSV(t)

	var wg sync.WaitGroup
	var mu sync.Mutex
	var jobIDs []string

	// Job submitters (with interleaved cancellations).
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				resp, body := post(t,
					srv.URL+"/v1/jobs/fit?global_only=1&no_growth=1&no_shocks=1",
					"text/csv", csv)
				if resp.StatusCode == http.StatusServiceUnavailable {
					continue
				}
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("submit status %d: %s", resp.StatusCode, body)
					return
				}
				var acc struct {
					JobID string `json:"job_id"`
				}
				if err := json.Unmarshal([]byte(body), &acc); err != nil {
					t.Errorf("accept body: %v", err)
					return
				}
				mu.Lock()
				jobIDs = append(jobIDs, acc.JobID)
				mu.Unlock()
				if i%2 == 0 {
					// Any of 202/404/409 is fine; racing terminality.
					doRequest(t, http.MethodDelete, srv.URL+"/v1/jobs/"+acc.JobID)
				}
				doRequest(t, http.MethodGet, srv.URL+"/v1/jobs/"+acc.JobID)
				doRequest(t, http.MethodGet, srv.URL+"/v1/models")
			}
		}(w)
	}
	// Stream appenders over a small shared set of stream ids.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("s%d", w%2)
			for i := 0; i < 6; i++ {
				resp, body := post(t, srv.URL+"/v1/streams/"+id+"/append?refit_every=25",
					"application/json", streamBody(10, 10*i, 9))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("append status %d: %s", resp.StatusCode, body)
					return
				}
				doRequest(t, http.MethodGet, srv.URL+"/v1/streams")
				doRequest(t, http.MethodGet, srv.URL+"/v1/streams/"+id)
			}
		}(w)
	}
	wg.Wait()

	// Every submitted job must still resolve to a terminal state.
	mu.Lock()
	ids := append([]string(nil), jobIDs...)
	mu.Unlock()
	for _, id := range ids {
		snap := waitJob(t, srv.URL, id)
		switch snap.State {
		case jobs.StateDone, jobs.StateCancelled, jobs.StateFailed:
		default:
			t.Errorf("job %s state %s", id, snap.State)
		}
	}
}

// TestEventsAreAListForEveryEngine pins DESIGN §8's events contract on both
// event endpoints: every engine answers a JSON list, [] when its model has
// no events, never null. A one-keyword logistic curve gives the per-keyword
// families nothing to flag.
func TestEventsAreAListForEveryEngine(t *testing.T) {
	const n = 72
	x := tensor.New([]string{"rise"}, []string{"us", "jp"}, n)
	for i := 0; i < n; i++ {
		rise := 100 / (1 + math.Exp(-0.15*(float64(i)-30)))
		x.Set(0, 0, i, 0.6*rise)
		x.Set(0, 1, i, 0.4*rise)
	}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, x); err != nil {
		t.Fatal(err)
	}
	csv := buf.String()
	srv, _, _ := statefulServer(t, "", jobs.Options{})
	isList := func(t *testing.T, what, body string) {
		t.Helper()
		var resp struct {
			Events json.RawMessage `json:"events"`
		}
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("%s: %v: %s", what, err, body)
		}
		if !strings.HasPrefix(string(resp.Events), "[") {
			t.Errorf("%s answered events %s, want a list", what, resp.Events)
		}
	}
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			if name == faulty.Name() {
				t.Skip("the fault-injection engine fails its fits")
			}
			resp, model := post(t, srv.URL+"/v1/fit?global_only=1&no_growth=1&engine="+name,
				"text/csv", csv)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("fit status %d: %s", resp.StatusCode, model)
			}
			resp, body := post(t, srv.URL+"/v1/events", "application/json", model)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("events status %d: %s", resp.StatusCode, body)
			}
			isList(t, "POST /v1/events", body)

			jobID, modelID := submitFit(t, srv.URL, csv, "&engine="+name)
			if snap := waitJob(t, srv.URL, jobID); snap.State != jobs.StateDone {
				t.Fatalf("fit job ended %s: %s", snap.State, snap.Error)
			}
			resp, body = doRequest(t, http.MethodGet, srv.URL+"/v1/models/"+modelID+"/events")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("model events status %d: %s", resp.StatusCode, body)
			}
			isList(t, "GET /v1/models/{id}/events", body)
		})
	}
}
