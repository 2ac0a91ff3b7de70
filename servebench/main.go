// Command servebench measures the served path of the dspot service end to
// end and layer by layer. It starts the real serving stack in-process
// (registry.Open, jobs.New, (*service.Server).Handler() behind httptest),
// drives one seeded closed-loop workload over loopback HTTP with one client,
// checks every response, and prints its metrics; the last line of standard
// output is one JSON object. See README.md for the workloads and metrics.
//
//	bash servebench/run.sh --workload fit-jobs --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"dspot/internal/faultfs"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	build    string // where runs write: data dirs, records, spans
	// wrap, when set, wraps the served handler (tests corrupt answers).
	wrap func(http.Handler) http.Handler
}

func main() {
	// A run must end within 180 s; fail loudly rather than hang past it.
	watchdog := time.AfterFunc(175*time.Second, func() {
		fmt.Fprintln(os.Stderr, "servebench: watchdog: run exceeded 175s")
		os.Exit(3)
	})
	code := run(os.Args[1:], os.Stdout, os.Stderr, nil)
	watchdog.Stop()
	os.Exit(code)
}

// run executes one invocation and returns the exit code: 0 when every
// check passed, 1 when a check failed (the JSON line says correct=false),
// 2 when the run could not be made at all.
func run(args []string, stdout, stderr io.Writer, wrap func(http.Handler) http.Handler) int {
	flags := flag.NewFlagSet("servebench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	cfg := config{wrap: wrap}
	flags.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flags.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are made from")
	flags.IntVar(&cfg.seconds, "seconds", 30, "length of the timed phase in seconds")
	traceFlag := flags.Int("trace", 0, "1 replays the workload traced and reports per-layer metrics")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	if _, err := newWorkload(cfg.workload, cfg.seed); err != nil || cfg.seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintf(stderr, "servebench: bad arguments (workload %q, seconds %d, trace %d): want a workload from %v\n",
			cfg.workload, cfg.seconds, *traceFlag, workloadNames)
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	cfg.build = filepath.Join(wd, ".bench_build")
	for _, sub := range []string{"data", "runs", "spans"} {
		if err := os.MkdirAll(filepath.Join(cfg.build, sub), 0o755); err != nil {
			fmt.Fprintln(stderr, "servebench:", err)
			return 2
		}
	}

	var rec *record
	if cfg.trace {
		rec, err = tracedRun(cfg)
	} else {
		rec, err = plainRun(cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	rec.report(stdout)
	if err := rec.save(cfg.build); err != nil {
		fmt.Fprintln(stderr, "servebench: writing run record:", err)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]map[string]any{}}
	for _, e := range rec.Metrics {
		if !e.Ungated {
			out.Metrics[e.Name] = map[string]any{"value": e.Value, "unit": e.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		for _, e := range rec.Errors {
			fmt.Fprintln(stderr, "servebench: check failed:", e)
		}
		return 1
	}
	return 0
}

// record is everything one run found; it is printed and saved as
// .bench_build/runs/<workload>-seed<seed>-trace<0|1>.json.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	Env        envRecord          `json:"env"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Metrics    []entry            `json:"metrics"`
	Notes      []string           `json:"notes,omitempty"`
	SetupRuns  []float64          `json:"setup_runs_s,omitempty"`
	Work       work               `json:"work"`
	Checkpoint *work              `json:"work_checkpoint,omitempty"`
	DirectWork *work              `json:"direct_work,omitempty"`
	SelfMsP50  map[string]float64 `json:"self_ms_p50,omitempty"`
	TracedE2E  []entry            `json:"traced_end_to_end,omitempty"`
	Overhead   map[string]float64 `json:"tracing_overhead,omitempty"`
	SpansFile  string             `json:"spans_file,omitempty"`
}

func (r *record) path(build string) string {
	t := 0
	if r.Trace {
		t = 1
	}
	return filepath.Join(build, "runs", fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, t))
}

func (r *record) save(build string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(r.path(build), data, 0o644)
}

func (r *record) report(w io.Writer) {
	fmt.Fprintf(w, "servebench workload=%s seed=%d seconds=%d trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	e := r.Env
	fmt.Fprintf(w, "env go=%s gomaxprocs=%d nproc=%d cpu=%q data_dir=%q fs=%s persist=%s\n",
		e.GoVersion, e.GOMAXPROCS, e.NProc, e.CPU, e.DataDir, e.FSType, e.Persist)
	fmt.Fprintf(w, "work %s\n", r.Work)
	if r.Checkpoint != nil {
		fmt.Fprintf(w, "work@%d %s\n", r.Checkpoint.Ops, *r.Checkpoint)
	}
	if r.DirectWork != nil {
		fmt.Fprintf(w, "work(direct) %s\n", *r.DirectWork)
	}
	if len(r.SetupRuns) > 0 {
		fmt.Fprintf(w, "setup runs (s) %.4f\n", r.SetupRuns)
	}
	for _, m := range r.Metrics {
		note := ""
		if m.Ungated {
			note = ", not in the result line"
		}
		fmt.Fprintf(w, "metric %s = %.6g %s (n=%d%s)\n", m.Name, m.Value, m.Unit, m.Samples, note)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	names := make([]string, 0, len(r.SelfMsP50))
	for k := range r.SelfMsP50 {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "self %s p50 = %.6g ms\n", k, r.SelfMsP50[k])
	}
	for _, m := range r.TracedE2E {
		if o, ok := r.Overhead[m.Name]; ok {
			fmt.Fprintf(w, "tracing overhead %s = %+.2f%% (traced %.6g %s)\n", m.Name, 100*o, m.Value, m.Unit)
		} else {
			fmt.Fprintf(w, "traced %s = %.6g %s (no untraced record of this seed to compare)\n", m.Name, m.Value, m.Unit)
		}
	}
	if r.SpansFile != "" {
		fmt.Fprintf(w, "spans %s\n", r.SpansFile)
	}
}

func (w work) String() string {
	return fmt.Sprintf("ops=%d refits=%d lm_iterations=%d shocks_tried=%d shocks_accepted=%d heads=%v bytes_persisted=%d",
		w.Ops, w.Refits, w.LMIterations, w.ShocksTried, w.ShocksAccepted, w.Heads, w.Bytes)
}

// envRecord says where a run ran, so numbers from different machines are
// never compared blind.
type envRecord struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	DataDir    string `json:"data_dir"`
	FSType     string `json:"fs_type"`
	// Persist is what the registry wrote through: "os" on tmpfs, the
	// "memfs" fallback elsewhere, or "none" for an in-memory registry.
	Persist string `json:"persist"`
}

func newEnv(seed int64) envRecord {
	return envRecord{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPU: cpuModel(), Seed: seed, Persist: "none"}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// heapSampler tracks the peak heap occupied by objects, read through
// runtime/metrics, which does not stop the world. While paused it reads
// nothing.
type heapSampler struct {
	stop, done chan struct{}
	paused     atomic.Bool
	peak       uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if !h.paused.Load() {
				metrics.Read(s)
				if v := s[0].Value.Uint64(); v > h.peak {
					h.peak = v
				}
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) pause()  { h.paused.Store(true) }
func (h *heapSampler) resume() { h.paused.Store(false) }

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// newDataDir names a fresh data dir for one store and picks the filesystem
// the registry persists through. The record names the directory that holds
// the run's data dirs.
func newDataDir(cfg config, env *envRecord, tag string) (string, faultfs.FS) {
	parent := filepath.Join(cfg.build, "data")
	dir := filepath.Join(parent, fmt.Sprintf("%s-%d-%s", cfg.workload, os.Getpid(), tag))
	inner, fsType, used := persistFS(parent)
	env.DataDir, env.FSType, env.Persist = parent, fsType, used
	return dir, inner
}
