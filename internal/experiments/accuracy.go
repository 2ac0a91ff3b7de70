package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"dspot/internal/core"
	"dspot/internal/datagen"
	"dspot/internal/epidemic"
	"dspot/internal/funnel"
	"dspot/internal/stats"
)

// Fig9Result reproduces Fig. 9: fitting RMSE of Δ-SPOT against the SIRS,
// SKIPS, and FUNNEL baselines, at the global level (a) and local level (b).
// RMSE values are normalised per keyword by the sequence peak before
// averaging, so keywords with different volumes contribute comparably
// (the paper reports per-dataset bars; the normalised mean captures the
// same ordering).
type Fig9Result struct {
	Global map[string]float64 // method → mean normalised RMSE over keywords
	Local  map[string]float64 // method → mean normalised RMSE over (keyword, country)
}

func (r Fig9Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig 9 — fitting accuracy (mean RMSE / peak; lower is better)")
	fmt.Fprintln(&b, "  (a) global level:")
	for _, m := range []string{"SIRS", "SKIPS", "FUNNEL", "D-SPOT"} {
		if v, ok := r.Global[m]; ok {
			fmt.Fprintf(&b, "      %-7s %.4f\n", m, v)
		}
	}
	if len(r.Local) > 0 {
		fmt.Fprintln(&b, "  (b) local level:")
		for _, m := range []string{"SIRS", "SKIPS", "FUNNEL", "D-SPOT"} {
			if v, ok := r.Local[m]; ok {
				fmt.Fprintf(&b, "      %-7s %.4f\n", m, v)
			}
		}
	}
	return b.String()
}

// Fig9Global runs the global-level accuracy comparison over the eight
// GoogleTrends keywords.
func Fig9Global(cfg Config) (Fig9Result, error) {
	truth := datagen.GoogleTrends(cfg.gen())
	x := truth.Tensor

	m, err := core.FitGlobal(x, cfg.fit())
	if err != nil {
		return Fig9Result{}, err
	}

	res := Fig9Result{Global: map[string]float64{}}
	counts := map[string]int{}
	add := func(method string, rmse, peak float64) {
		if peak <= 0 {
			return
		}
		res.Global[method] += rmse / peak
		counts[method]++
	}

	for i := range x.Keywords {
		obs := x.Global(i)
		peak := stats.Max(obs)
		n := len(obs)

		add("D-SPOT", stats.RMSE(obs, m.SimulateGlobal(i, n)), peak)

		if p, err := epidemic.Fit(context.Background(), epidemic.SIRS, obs); err == nil {
			add("SIRS", stats.RMSE(obs, p.Simulate(n)), peak)
		}
		if p, err := epidemic.Fit(context.Background(), epidemic.SKIPS, obs); err == nil {
			add("SKIPS", stats.RMSE(obs, p.Simulate(n)), peak)
		}
		if p, err := funnel.Fit(obs, funnel.Options{}); err == nil {
			add("FUNNEL", stats.RMSE(obs, p.Simulate(n)), peak)
		}
	}
	for method, total := range res.Global {
		res.Global[method] = total / float64(counts[method])
	}
	return res, nil
}

// maxLocalPanelLocations caps the location axis of the Fig. 9(b) panel:
// SIRS and SKIPS fit every local sequence from scratch, so the panel's cost
// is dominated by the baselines rather than Δ-SPOT. A deterministic
// top-by-weight subsample preserves the comparison (every method sees the
// same sequences) at tractable cost; the cap is logged in EXPERIMENTS.md.
const maxLocalPanelLocations = 40

// Fig9Local runs the local-level comparison: every method fits each
// (keyword, country) sequence. Δ-SPOT and FUNNEL use their hierarchical
// global→local machinery; SIRS and SKIPS fit each local sequence
// independently (they have no notion of shared structure).
func Fig9Local(cfg Config) (Fig9Result, error) {
	if cfg.Locations <= 0 || cfg.Locations > maxLocalPanelLocations {
		cfg.Locations = maxLocalPanelLocations
	}
	truth := datagen.GoogleTrends(cfg.gen())
	x := truth.Tensor

	m, err := core.Fit(x, cfg.fit())
	if err != nil {
		return Fig9Result{}, err
	}

	res := Fig9Result{Local: map[string]float64{}}
	counts := map[string]int{}

	n := x.N()
	type cell struct {
		rmse map[string]float64 // method → normalised RMSE (absent = failed)
	}
	for i := range x.Keywords {
		obs := x.Global(i)
		// FUNNEL: one global fit per keyword, locals by least-squares scale.
		funnelGlobal, funnelErr := funnel.Fit(obs, funnel.Options{})

		locals := make([][]float64, x.L())
		for j := range locals {
			locals[j] = x.Local(i, j)
		}
		var funnelScales []float64
		if funnelErr == nil {
			funnelScales = funnel.FitLocal(funnelGlobal, locals)
		}

		// SIRS/SKIPS fit every local sequence independently; that is the
		// dominant cost of this panel, so it runs on a worker pool. Each
		// worker writes only its own cell, and accumulation afterwards is
		// ordered, keeping the result deterministic.
		cells := make([]cell, x.L())
		var wg sync.WaitGroup
		sem := make(chan struct{}, cfg.Workers)
		for j := 0; j < x.L(); j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				seq := locals[j]
				peak := stats.Max(seq)
				if peak <= 0 {
					return
				}
				c := cell{rmse: map[string]float64{}}
				c.rmse["D-SPOT"] = stats.RMSE(seq, m.SimulateLocal(i, j, n)) / peak
				if funnelErr == nil {
					est := funnel.SimulateLocal(funnelGlobal, funnelScales[j], n)
					c.rmse["FUNNEL"] = stats.RMSE(seq, est) / peak
				}
				if p, err := epidemic.Fit(context.Background(), epidemic.SIRS, seq); err == nil {
					c.rmse["SIRS"] = stats.RMSE(seq, p.Simulate(n)) / peak
				}
				if p, err := epidemic.Fit(context.Background(), epidemic.SKIPS, seq); err == nil {
					c.rmse["SKIPS"] = stats.RMSE(seq, p.Simulate(n)) / peak
				}
				cells[j] = c
			}(j)
		}
		wg.Wait()
		for j := range cells {
			for method, v := range cells[j].rmse {
				res.Local[method] += v
				counts[method]++
			}
		}
	}
	for method, total := range res.Local {
		res.Local[method] = total / float64(counts[method])
	}
	return res, nil
}

// Fig9 runs both panels and merges the results.
func Fig9(cfg Config) (Fig9Result, error) {
	g, err := Fig9Global(cfg)
	if err != nil {
		return Fig9Result{}, err
	}
	l, err := Fig9Local(cfg)
	if err != nil {
		return Fig9Result{}, err
	}
	return Fig9Result{Global: g.Global, Local: l.Local}, nil
}
