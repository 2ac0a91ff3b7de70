package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestMetricNamesMatchBenchmarkJSON keeps the metrics the program reports
// and the ones BENCHMARK.json declares the same set, with the same units:
// every workload's result line must carry every end-to-end metric, and
// every traced run every per-layer metric.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	declared := func(list []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range list {
			out[m.Name] = m.Unit
		}
		return out
	}

	// End to end: each workload on its own, fed one sample set that makes
	// every metric reportable.
	sm := newSamples()
	defer sm.free()
	for i := 0; i < 2000; i++ {
		sm.fit = append(sm.fit, int64(i+1))
		sm.nrmse = append(sm.nrmse, 0.1)
		sm.appends.add(int64(i + 1))
		sm.forecast.add(int64(i + 1))
	}
	sm.fcNRMSE, sm.fcReads = 1, 10
	for i := 0; i < 30; i++ {
		sm.rates = append(sm.rates, 1000)
	}
	for _, name := range workloadNames {
		wl, err := newWorkload(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := endToEnd(wl, sm, []float64{1})
		got := map[string]string{}
		for _, e := range m.entries {
			if !e.Ungated {
				got[e.Name] = e.Unit
			}
		}
		same(t, "end_to_end @ "+name, got, declared(bench.EndToEnd))
	}

	for _, persist := range []string{"os", "memfs", "none"} {
		m := perLayer(&fitJobs{}, spanStats{}, spanStats{}, work{}, 0, persist)
		layers := map[string]string{}
		for _, e := range m.entries {
			if !e.Ungated {
				layers[e.Name] = e.Unit
			}
		}
		same(t, "per_layer (persist "+persist+")", layers, declared(bench.PerLayer))
	}
}

func same(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	var names []string
	for n := range want {
		names = append(names, n)
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		if got[n] != want[n] {
			t.Errorf("%s %s: reported with unit %q, declared with %q", what, n, got[n], want[n])
		}
	}
}
