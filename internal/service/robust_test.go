package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dspot/internal/engine"
	"dspot/internal/jobs"
	"dspot/internal/registry"
)

// probeJSON decodes loosely (any values): unready bodies carry a "reasons"
// array alongside the scalar fields.
func probeJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("readyz body not JSON: %v", err)
	}
	return resp, body
}

func TestReadyzDefaultReady(t *testing.T) {
	srv := testServer(t)
	resp, body := probeJSON(t, srv.URL+"/readyz")
	if resp.StatusCode != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz = %d %v, want 200 ready", resp.StatusCode, body)
	}
}

func TestReadyzGateReportsReason(t *testing.T) {
	srv := httptest.NewServer((&Server{
		Ready: func() error { return errors.New("registry loading") },
	}).Handler())
	defer srv.Close()
	resp, body := probeJSON(t, srv.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz status = %d, want 503", resp.StatusCode)
	}
	if body["status"] != "unavailable" || body["reason"] != "registry loading" {
		t.Fatalf("readyz body = %v", body)
	}
	// Liveness stays green the whole time: restarting a booting process
	// because its *readiness* gate is closed would be a crash loop.
	resp2, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d while unready, want 200", resp2.StatusCode)
	}
}

func TestReadyzSaturatedQueue(t *testing.T) {
	reg, err := registry.Open(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	// Negative grace = instantaneous saturation reporting, so the test need
	// not wait out the anti-flap window.
	engine := jobs.New(jobs.Options{Workers: 1, QueueDepth: 1, SaturationGrace: -1})
	defer engine.Close()
	defer close(release)
	srv := httptest.NewServer((&Server{Registry: reg, Jobs: engine}).Handler())
	defer srv.Close()

	resp, body := probeJSON(t, srv.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idle readyz = %d %v, want 200", resp.StatusCode, body)
	}

	// One job occupies the sole worker, one fills the depth-1 queue.
	blocker := func(ctx context.Context) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	if _, err := engine.Submit("block", blocker); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the blocking job")
	}
	if _, err := engine.Submit("fill", blocker); err != nil {
		t.Fatal(err)
	}
	if !engine.Saturated() {
		t.Fatal("queue not saturated after filling it")
	}
	resp, body = probeJSON(t, srv.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable ||
		body["reason"] != "job queue saturated" {
		t.Fatalf("saturated readyz = %d %v, want 503 with reason", resp.StatusCode, body)
	}
}

// TestReadyzToleratesMomentarySaturation is the anti-flap half of the
// saturation gate: a queue that just filled must NOT fail readiness until
// it has stayed full for the whole grace window — a momentary burst only
// bounces the overflowing Submit (429-style, with Retry-After), it does not
// pull read-only endpoints out of load-balancer rotation.
func TestReadyzToleratesMomentarySaturation(t *testing.T) {
	reg, err := registry.Open(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	grace := 200 * time.Millisecond
	engine := jobs.New(jobs.Options{Workers: 1, QueueDepth: 1, SaturationGrace: grace})
	defer engine.Close()
	defer close(release)
	srv := httptest.NewServer((&Server{Registry: reg, Jobs: engine}).Handler())
	defer srv.Close()

	blocker := func(ctx context.Context) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	if _, err := engine.Submit("block", blocker); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the blocking job")
	}
	if _, err := engine.Submit("fill", blocker); err != nil {
		t.Fatal(err)
	}
	// Momentarily full: readiness must hold.
	resp, body := probeJSON(t, srv.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("momentarily saturated readyz = %d %v, want 200", resp.StatusCode, body)
	}
	// Sustained full: past the grace the instance really is backed up.
	time.Sleep(2 * grace)
	resp, body = probeJSON(t, srv.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable ||
		body["reason"] != "job queue saturated" {
		t.Fatalf("sustained saturated readyz = %d %v, want 503", resp.StatusCode, body)
	}
}

// TestFitRejectsDegenerateTensor covers the numerical boundary: a tensor
// that parses as CSV but carries Inf must bounce with 400 (bad input),
// never reach the fitters, and never read as 422 (fit failed).
func TestFitRejectsDegenerateTensor(t *testing.T) {
	srv := testServer(t)
	csv := "keyword,location,tick,count\nk,a,0,1\nk,a,1,Inf\nk,a,2,3\n"
	resp, body := post(t, srv.URL+"/v1/fit", "text/csv", csv)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("Inf tensor fit = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "invalid tensor") {
		t.Fatalf("error body does not name the cause: %s", body)
	}
}

func TestJobFitRejectsDegenerateTensor(t *testing.T) {
	reg, err := registry.Open(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	engine := jobs.New(jobs.Options{Workers: 1, QueueDepth: 1})
	defer engine.Close()
	srv := httptest.NewServer((&Server{Registry: reg, Jobs: engine}).Handler())
	defer srv.Close()
	csv := "keyword,location,tick,count\nk,a,0,1\nk,a,1,Inf\n"
	resp, body := post(t, srv.URL+"/v1/jobs/fit", "text/csv", csv)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("Inf tensor job fit = %d: %s", resp.StatusCode, body)
	}
	if snaps := engine.List(); len(snaps) != 0 {
		t.Fatalf("degenerate tensor consumed a queue slot: %+v", snaps)
	}
}

// A model body with a mistyped field answers 400 naming the wire field and
// the JSON types, never the Go types or packages it decodes into: on every
// engine's decoder, and on the probe that reads the body's engine name
// before routing it.
func TestModelDecodeErrorNamesWireField(t *testing.T) {
	srv := testServer(t)
	type bad struct{ body, field string }
	var cases []bad
	for _, name := range engine.Names() {
		if name == (&faultyEngine{}).Name() {
			continue // chaos_test.go's stand-in, whose decoder is test code
		}
		cases = append(cases, bad{fmt.Sprintf(`{"engine": %q, "ticks": "x"}`, name), `field "ticks"`})
	}
	cases = append(cases,
		bad{`{"engine": "funnel", "params": [{"N": "x"}]}`, `field "params.N"`},
		bad{`{"engine": 7}`, `field "engine"`},
		bad{`[1]`, "got a JSON array, want an object"})
	for _, path := range []string{"/v1/forecast", "/v1/events"} {
		for _, c := range cases {
			resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			var body struct{ Error string }
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, c.field) ||
				strings.Contains(body.Error, "Go struct field") || strings.Contains(body.Error, "dspot/internal") {
				t.Errorf("%s %s: %d %q; want 400 naming %s and no Go type", path, c.body, resp.StatusCode, body.Error, c.field)
			}
		}
	}
}

// TestRequestDecodeErrorNamesWireField posts mistyped request bodies to the
// two endpoints that decode a JSON request of their own, /v1/anomalies and
// a stream append: the 400 names the wire field and the JSON types, not the
// Go request type behind the handler. An oversized body still answers 413.
func TestRequestDecodeErrorNamesWireField(t *testing.T) {
	reg, err := registry.Open(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer((&Server{Workers: 1, Registry: reg, MaxBody: 256}).Handler())
	t.Cleanup(srv.Close)
	big := `{"values": [` + strings.Repeat("1,", 200) + `1]}`
	for _, c := range []struct {
		path, body string
		code       int
		want       string
	}{
		{"/v1/anomalies", `{"series": "x"}`, 400, `field "series": got a JSON string, want an array`},
		{"/v1/anomalies", `{"series": [1, "x"]}`, 400, `field "series": got a JSON string, want a number`},
		{"/v1/anomalies", `{"threshold": [2]}`, 400, `field "threshold": got a JSON array, want a number`},
		{"/v1/anomalies", big, 413, "request body too large"},
		{"/v1/streams/s1/append", `{"values": "x"}`, 400, `field "values": got a JSON string, want an array`},
		{"/v1/streams/s1/append", `{"values": [1, true]}`, 400, `field "values": got a JSON boolean, want a number`},
		{"/v1/streams/s1/append", `[1]`, 400, `got a JSON array, want an object`},
		{"/v1/streams/s1/append", big, 413, "request body too large"},
	} {
		resp, body := post(t, srv.URL+c.path, "application/json", c.body)
		var e struct{ Error string }
		if err := json.Unmarshal([]byte(body), &e); err != nil {
			t.Fatalf("%s %.40s: %v in %q", c.path, c.body, err, body)
		}
		if resp.StatusCode != c.code || !strings.Contains(e.Error, c.want) ||
			strings.Contains(e.Error, "Go struct field") || strings.Contains(e.Error, "Request") {
			t.Errorf("%s %.40s: %d %q; want %d with %q and no Go type", c.path, c.body, resp.StatusCode, e.Error, c.code, c.want)
		}
	}
}
