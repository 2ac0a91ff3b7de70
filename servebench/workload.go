package main

import (
	"fmt"
	"math"
)

// workload is one traffic mix. Each replay gets a fresh value from
// newWorkload, so per-replay state (stream heads) starts from the seed.
type workload interface {
	// persistent reports whether the registry sits on a data dir.
	persistent() bool
	// setupHTTP seeds a freshly started stack.
	setupHTTP(s *stack) error
	// opHTTP runs timed operation i over HTTP.
	opHTTP(i int, s *stack, sm *samples, w *work) error
	// afterHTTP runs the untimed operations and the final checks;
	// some are made only in a traced run.
	afterHTTP(s *stack, sm *samples, t *tally, w *work, traced bool)
	// setupDirect, opDirect and afterDirect make the same calls into the
	// layers that the handlers make, recording a span around each.
	setupDirect(st *store, rec *recorder) error
	opDirect(i int, st *store, rec *recorder, w *work) error
	afterDirect(st *store, rec *recorder, t *tally, w *work)
	// endToEnd reports the workload's end-to-end metrics.
	endToEnd(sm *samples, m *metricSet)
	// setups is how many times an untraced run sets the workload up, each
	// time on a fresh stack: setup_s is their median.
	setups() int
	// checkpoint is the operation count after which the work counts are
	// recorded, so that runs of one seed can be compared however far each
	// got in its time.
	checkpoint() int
}

var workloadNames = []string{"fit-jobs", "ingest-disk", "ingest-read-mem"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "fit-jobs":
		return &fitJobs{seed: seed, warm: warmupJob()}, nil
	case "ingest-disk":
		return newIngest(seed, ingestDisk), nil
	case "ingest-read-mem":
		return newIngest(seed, ingestReadMem), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// samples are the client-side measurements of one replay, in nanoseconds
// unless named otherwise.
type samples struct {
	fit      []int64
	nrmse    []float64 // per job
	forecast *latencies
	appends  *latencies
	// fcNRMSE sums the NRMSE of fcReads stream forecast reads.
	fcNRMSE float64
	fcReads int
	ticks   int // ticks accepted in the timed phase
	// rates holds the ticks accepted per second in each whole second of
	// the timed phase.
	rates    []float64
	heapPeak float64 // MiB
}

func newSamples() *samples {
	return &samples{forecast: newLatencies(), appends: newLatencies()}
}

func (sm *samples) free() {
	sm.forecast.free()
	sm.appends.free()
}

// work counts what the program did. For one seed the counts after the same
// number of operations must repeat exactly, run after run and between the
// HTTP and direct replays: work that depends on timing would break that.
type work struct {
	Ops            int     `json:"ops"`
	Refits         int     `json:"refits"`
	LMIterations   int     `json:"lm_iterations"`
	ShocksTried    int     `json:"shocks_tried"`
	ShocksAccepted int     `json:"shocks_accepted"`
	Heads          []int64 `json:"heads,omitempty"`
	Bytes          int64   `json:"bytes_persisted"`
}

// addJob adds one finished fit job's counts.
func (w *work) addJob(lmIters, tried, accepted int) {
	w.LMIterations += lmIters
	w.ShocksTried += tried
	w.ShocksAccepted += accepted
}

// addAppend records that stream k accepted an append and now ends at head.
func (w *work) addAppend(k int, head int64, refitted bool) {
	for len(w.Heads) <= k {
		w.Heads = append(w.Heads, 0)
	}
	w.Heads[k] = head
	if refitted {
		w.Refits++
	}
}

// clone returns a copy that later counting does not change.
func (w work) clone() work {
	w.Heads = append([]int64(nil), w.Heads...)
	return w
}

// diff describes how w and o differ ("" when they match).
func (w work) diff(o work) string {
	a, b := fmt.Sprintf("%+v", w), fmt.Sprintf("%+v", o)
	if a == b {
		return ""
	}
	return a + " != " + b
}

// tally counts operations attempted and failed, keeping the first few
// failures for the report.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 8 {
			t.errs = append(t.errs, e)
		}
	}
}

// checkFinite fails unless xs holds want values, all finite.
func checkFinite(what string, xs []float64, want int) error {
	if len(xs) != want {
		return fmt.Errorf("%s: %d values, want %d", what, len(xs), want)
	}
	for i, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: value %d is %v", what, i, v)
		}
	}
	return nil
}
