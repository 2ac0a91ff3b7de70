package main

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"math"
	"reflect"
	"testing"

	"dspot/internal/engine"
	"dspot/internal/registry"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so percentile must sort
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 10, false}, // 9 beyond the median
		{20, 0.5, 10, true},  // 10 beyond
		{99, 0.9, 90, false},
		{100, 0.9, 90, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

// get returns a metric by name.
func (m *metricSet) get(name string) (entry, bool) {
	for _, e := range m.entries {
		if e.Name == name {
			return e, true
		}
	}
	return entry{}, false
}

func TestAddPctNotesUnreportable(t *testing.T) {
	var m metricSet
	m.addPct("e2e_p99", "ms", seq(500), 0.99, false)
	m.addPct("layer_p99", "ms", seq(500), 0.99, true)
	m.addPct("unused_p50", "ms", nil, 0.5, true)
	if _, ok := m.get("e2e_p99"); ok {
		t.Error("an end-to-end percentile without 10 samples beyond it was reported")
	}
	if e, ok := m.get("layer_p99"); !ok || e.Value != 0 || e.Samples != 500 {
		t.Errorf("layer_p99 = %+v, %v; want 0 with 500 samples", e, ok)
	}
	if e, ok := m.get("unused_p50"); !ok || e.Value != 0 || e.Samples != 0 {
		t.Errorf("unused_p50 = %+v, %v; want 0 with 0 samples", e, ok)
	}
	if len(m.notes) != 2 {
		t.Errorf("notes = %q, want one per unreportable percentile", m.notes)
	}
	m.addUngated("tail_p99", "ms", seq(1000), 0.99)
	if e, ok := m.get("tail_p99"); !ok || !e.Ungated || e.Value != 990 {
		t.Errorf("tail_p99 = %+v, %v; want an ungated 990", e, ok)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 12, End: 15},
		{ID: 6, Name: "root", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[int32]int64{1: 100 - 30 - 10, 2: 20 - 3, 3: 20, 4: 40, 5: 3, 6: 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestStatsOfSkipsSetUp(t *testing.T) {
	st := statsOf([]span{
		{ID: 1, Op: -1, Name: "registry.append", Start: 0, End: 5},
		{ID: 2, Op: 0, Name: "registry.append", Start: 10, End: 20},
		{ID: 3, Op: 0, Parent: 2, Name: "faultfs.write", Start: 12, End: 16},
	})
	if got := st.dur["registry.append"]; !reflect.DeepEqual(got, []int64{10}) {
		t.Errorf("durations = %v, want only the timed span", got)
	}
	if got := st.self["registry.append"]; !reflect.DeepEqual(got, []int64{6}) {
		t.Errorf("self = %v, want 6", got)
	}
}

func TestRecorderNilIsFree(t *testing.T) {
	var r *recorder
	if id := r.begin("x", 0); id != 0 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	r.end(0, "")
	r.setOp(3)
	r.setFSParent(7)
	if spans, _ := r.snapshot(); spans != nil || r.fsParentID() != 0 {
		t.Fatal("nil recorder recorded something")
	}
}

func TestWorkCounters(t *testing.T) {
	var w work
	w.addAppend(2, 105, false)
	w.addAppend(0, 101, true)
	w.addAppend(2, 106, true)
	w.addJob(40, 3, 1)
	w.addJob(2, 0, 0)
	want := work{Refits: 2, LMIterations: 42, ShocksTried: 3, ShocksAccepted: 1, Heads: []int64{101, 0, 106}}
	if !reflect.DeepEqual(w, want) {
		t.Fatalf("work = %+v, want %+v", w, want)
	}
	cp := w.clone()
	w.addAppend(0, 102, false)
	if cp.Heads[0] != 101 {
		t.Fatal("a checkpoint changed when counting went on")
	}
	if cp.diff(want) != "" {
		t.Errorf("diff of equal counts = %q", cp.diff(want))
	}
	if w.diff(cp) == "" {
		t.Error("diff missed a changed head")
	}
}

func TestTally(t *testing.T) {
	var a, b tally
	a.record(nil)
	a.record(errors.New("bad head"))
	b.record(errors.New("bad forecast"))
	a.add(b)
	if a.attempted != 3 || a.failed != 2 || len(a.errs) != 2 {
		t.Fatalf("tally = %+v", a)
	}
}

func TestInputsRepeatPerSeed(t *testing.T) {
	a, b := deckJobAt(7, 3), deckJobAt(7, 3)
	if !bytes.Equal(a.csv, b.csv) {
		t.Fatal("deck job 3 of seed 7 differs between calls")
	}
	if c := deckJobAt(8, 3); bytes.Equal(a.csv, c.csv) {
		t.Fatal("seeds 7 and 8 gave the same deck job")
	}
	short := newSeries(7, 1, 300)
	if !reflect.DeepEqual(short.span(0, 5000), newSeries(7, 1, 300).span(0, 5000)) {
		t.Fatal("stream 1 of seed 7 differs between calls")
	}
	// The signal has settled into its yearly cycle where it starts to
	// repeat it.
	n := len(short.base)
	for i := 1; i <= streamPeriod; i++ {
		if d := short.base[n-i] - short.base[n-i-streamPeriod]; math.Abs(d) > 1e-6*short.base[n-i]+1e-9 {
			t.Fatalf("signal still moving %d ticks before the end: %g", i, d)
		}
	}
	other := newSeries(8, 1, 300)
	if !reflect.DeepEqual(short.span(0, 300), other.span(0, 300)) {
		t.Fatal("the set-up history depends on the seed")
	}
	if reflect.DeepEqual(short.span(300, 400), other.span(300, 400)) {
		t.Fatal("seeds 7 and 8 gave the same timed ticks")
	}
}

// TestMemFSCarriesTheRegistry persists a model and a stream through the
// in-memory fallback and reopens the registry from it.
func TestMemFSCarriesTheRegistry(t *testing.T) {
	mem := newMemFS()
	bfs := &benchFS{inner: mem}
	const dir = "/data/reg"
	reg, err := registry.Open(registry.Options{DataDir: dir, FS: bfs})
	if err != nil {
		t.Fatal(err)
	}
	job := warmupJob()
	m, err := fitModel(job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Put("m", m); err != nil {
		t.Fatal(err)
	}
	in := newIngest(1, ingestReadMem)
	if _, err := reg.AppendStream(context.Background(), "s0", in.series[0].span(0, 120), in.createOptions()); err != nil {
		t.Fatal(err)
	}
	if bfs.bytes.Load() == 0 || bfs.ops.Load() == 0 {
		t.Fatal("nothing counted")
	}
	if _, err := mem.ReadFile("/data/reg/missing.json"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
	again, err := registry.Open(registry.Options{DataDir: dir, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := again.Get("m"); err != nil {
		t.Fatalf("model did not survive a reopen: %v", err)
	}
	st, err := again.StreamStatusFor("s0")
	if err != nil || st.Head != 120 || !st.Ready {
		t.Fatalf("stream after reopen: %+v, %v", st, err)
	}
}

// fitModel fits a job's tensor the way the service does.
func fitModel(job deckJob) (engine.Model, error) {
	e, err := engine.Lookup(engine.Default)
	if err != nil {
		return nil, err
	}
	return e.Fit(job.x, engine.FitOptions{Workers: 1})
}

func TestRecorderKeepsSpans(t *testing.T) {
	r := newRecorder()
	defer r.free()
	r.setOp(4)
	parent := r.begin("registry.append", 0)
	r.setFSParent(parent)
	child := r.begin("faultfs.write", r.fsParentID())
	r.end(child, "")
	r.setFSParent(0)
	r.begin("never.closed", 0)
	r.end(parent, "registry.refit")
	spans, dropped := r.snapshot()
	if dropped != 0 || len(spans) != 2 {
		t.Fatalf("spans %+v, dropped %d; want the two closed ones", spans, dropped)
	}
	if got := spans[0]; got.Name != "registry.refit" || got.Op != 4 || got.Parent != 0 || got.End < got.Start {
		t.Errorf("renamed parent = %+v", got)
	}
	if got := spans[1]; got.Name != "faultfs.write" || got.Parent != parent {
		t.Errorf("child = %+v", got)
	}
}

func TestWholeCycles(t *testing.T) {
	for n, want := range map[int]int{0: 0, 10: 10, 63: 63, 64: 64, 100: 64, 200: 192} {
		if got := wholeCycles(n); got != want {
			t.Errorf("wholeCycles(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCheckRefit(t *testing.T) {
	in := newIngest(1, ingestReadMem)
	in.heads[0] = 5
	var w work
	if err := in.checkRefit(0, registry.StreamStatus{Refitted: true, Head: 5}, &w); err != nil || w.Refits != 1 {
		t.Fatalf("good refit: err %v, refits %d", err, w.Refits)
	}
	if err := in.checkRefit(0, registry.StreamStatus{Head: 5}, &w); err == nil {
		t.Error("a refit that says refitted=false passed")
	}
	if err := in.checkRefit(0, registry.StreamStatus{Refitted: true, Head: 4}, &w); err == nil {
		t.Error("a refit that lost a tick passed")
	}
}
