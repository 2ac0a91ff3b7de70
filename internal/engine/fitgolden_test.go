package engine

import (
	"context"
	"hash/fnv"
	"testing"

	"dspot/internal/datagen"
	"dspot/internal/epidemic"
	"dspot/internal/tensor"
)

// TestConformanceFitGolden pins the bits the per-keyword engines fit, where
// TestConformanceWireGolden pins only what a committed model computes. Each
// case hashes the EncodeModel bytes of a fit under conformanceOpts (encoding
// writes every float so that it parses back to the same bits): epidemic,
// FUNNEL and HIP on conformanceTensor and on a GoogleTrends tensor, and HIP
// on the Hawkes scenario under its promotion series. The epidemic engine
// keeps only the MDL winner of its four kinds, so every kind's parameters on
// the GoogleTrends globals are hashed too.
func TestConformanceFitGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("fits three engines on three tensors; skipped in -short")
	}
	trends := datagen.GoogleTrends(datagen.Config{Locations: 2, Ticks: 78, Seed: 3}).Tensor
	hawkes, promo := datagen.HawkesScenario(datagen.Config{Locations: 2, Seed: 7, Noise: 0.02})
	for _, tc := range []struct {
		name, engine string
		x            *tensor.Tensor
		promotion    []float64
		want         uint64
	}{
		{"epidemic/conformance", "epidemic", conformanceTensor(), nil, 0x123a5402ebf87a2b},
		{"epidemic/trends", "epidemic", trends, nil, 0x8eb5fff6980b94e},
		{"funnel/conformance", "funnel", conformanceTensor(), nil, 0x8da037a269e8463d},
		{"funnel/trends", "funnel", trends, nil, 0x39b435012e55f5e5},
		{"hip/conformance", "hip", conformanceTensor(), nil, 0x16eed610a43d0353},
		{"hip/trends", "hip", trends, nil, 0x3b3fef7929edf4e5},
		{"hip/hawkes", "hip", hawkes.Tensor, promo, 0x20810bb884a5776a},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := Lookup(tc.engine)
			if err != nil {
				t.Fatal(err)
			}
			opts := conformanceOpts()
			opts.Promotion = tc.promotion
			m, err := e.Fit(tc.x.Clone(), opts)
			if err != nil {
				t.Fatalf("Fit: %v", err)
			}
			h := fnv.New64a()
			h.Write(encodeModel(t, e, m))
			if got := h.Sum64(); got != tc.want {
				t.Errorf("fitted model hashes to %#x, want %#x", got, tc.want)
			}
		})
	}
	t.Run("epidemic/kinds", func(t *testing.T) {
		h := fnv.New64a()
		for i := range trends.D() {
			for _, kind := range []epidemic.Kind{epidemic.SI, epidemic.SIR, epidemic.SIRS, epidemic.SKIPS} {
				p, err := epidemic.Fit(context.Background(), kind, trends.Global(i))
				if err != nil {
					t.Fatalf("keyword %d, %v: %v", i, kind, err)
				}
				writeBits(h, []float64{p.N, p.Beta, p.Delta, p.Gamma, p.I0, p.Amp, p.Phase, float64(p.Period)})
			}
		}
		if got, want := h.Sum64(), uint64(0x4b2d5f023ea6bf4); got != want {
			t.Errorf("per-kind parameters hash to %#x, want %#x", got, want)
		}
	})
}
