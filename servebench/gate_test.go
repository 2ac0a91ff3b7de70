package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// inTempDir runs f with a fresh working directory, where run writes its
// .bench_build tree.
func inTempDir(t *testing.T, f func()) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	f()
}

// rewrite passes requests matching match through edit, which may change
// the recorded answer before it reaches the client.
func rewrite(match func(*http.Request) bool, edit func(*httptest.ResponseRecorder)) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !match(r) {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			edit(rec)
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.Header().Del("Content-Length")
			w.WriteHeader(rec.Code)
			_, _ = w.Write(rec.Body.Bytes())
		})
	}
}

func isModelForecast(r *http.Request) bool {
	return strings.HasPrefix(r.URL.Path, "/v1/models/") && strings.HasSuffix(r.URL.Path, "/forecast")
}

// lastLine decodes the JSON object on the last line of out.
func lastLine(t *testing.T, out string) (res struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct {
		Value float64
		Unit  string
	}
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return res
}

func TestGatePassesCorrectAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the served stack for a second")
	}
	inTempDir(t, func() {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "fit-jobs", "--seed", "3", "--seconds", "1"}, &out, &errOut, nil)
		if code != 0 {
			t.Fatalf("exit %d\n%s\n%s", code, out.String(), errOut.String())
		}
		res := lastLine(t, out.String())
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("result %+v", res)
		}
		// A one-second run has too few jobs for the percentiles.
		for _, name := range []string{"setup_s", "model_nrmse", "peak_heap_mb"} {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("metric %s missing", name)
			}
		}
	})
}

func TestGateFailsOnWrongAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the served stack for a second")
	}
	cases := map[string]func(*httptest.ResponseRecorder){
		"short forecast": func(rec *httptest.ResponseRecorder) {
			var fc map[string]any
			if json.Unmarshal(rec.Body.Bytes(), &fc) != nil {
				return
			}
			if xs, ok := fc["forecast"].([]any); ok && len(xs) > 0 {
				fc["forecast"] = xs[:len(xs)-1]
			}
			data, _ := json.Marshal(fc)
			rec.Body = bytes.NewBuffer(data)
		},
		"server error": func(rec *httptest.ResponseRecorder) {
			rec.Code = http.StatusInternalServerError
		},
		"unparsable body": func(rec *httptest.ResponseRecorder) {
			rec.Body = bytes.NewBufferString("{not json")
		},
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			inTempDir(t, func() {
				var out, errOut bytes.Buffer
				code := run([]string{"--workload", "fit-jobs", "--seed", "3", "--seconds", "1"},
					&out, &errOut, rewrite(isModelForecast, edit))
				if code != 1 {
					t.Fatalf("exit %d, want 1\n%s\n%s", code, out.String(), errOut.String())
				}
				res := lastLine(t, out.String())
				if res.Correct || res.Failed == 0 {
					t.Fatalf("wrong answers passed the gate: %+v", res)
				}
			})
		})
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	inTempDir(t, func() {
		var out, errOut bytes.Buffer
		if code := run([]string{"--workload", "nope"}, &out, &errOut, nil); code == 0 {
			t.Fatal("unknown workload exited 0")
		}
		if out.Len() != 0 {
			t.Fatalf("printed a result: %s", out.String())
		}
	})
}
