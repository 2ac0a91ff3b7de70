package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dspot/internal/datagen"
	"dspot/internal/numcheck"
	"dspot/internal/tensor"
)

// conformanceTensor builds a small deterministic world every engine family
// can fit: one logistic adoption curve and one seasonal curve, each split
// across two locations.
func conformanceTensor() *tensor.Tensor {
	const n = 72
	x := tensor.New([]string{"rise", "wave"}, []string{"us", "jp"}, n)
	for t := 0; t < n; t++ {
		rise := 100 / (1 + math.Exp(-0.15*(float64(t)-30)))
		wave := 40 + 20*math.Sin(2*math.Pi*float64(t)/24)
		x.Set(0, 0, t, 0.6*rise)
		x.Set(0, 1, t, 0.4*rise)
		x.Set(1, 0, t, 0.7*wave)
		x.Set(1, 1, t, 0.3*wave)
	}
	return x
}

// conformanceOpts are the shared fit options: single worker so scheduling
// cannot perturb any engine, and a shock bound to keep fits quick.
func conformanceOpts() FitOptions {
	return FitOptions{Workers: 1, MaxShocks: 2}
}

func encodeModel(t *testing.T, e ModelEngine, m Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.EncodeModel(&buf, m); err != nil {
		t.Fatalf("EncodeModel: %v", err)
	}
	return buf.Bytes()
}

// TestConformanceDeterministicRefit pins that every engine is a pure function
// of its input: two fits of the same tensor encode byte-for-byte identically.
func TestConformanceDeterministicRefit(t *testing.T) {
	x := conformanceTensor()
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			e, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			m1, err := e.Fit(x.Clone(), conformanceOpts())
			if err != nil {
				t.Fatalf("first fit: %v", err)
			}
			m2, err := e.Fit(x.Clone(), conformanceOpts())
			if err != nil {
				t.Fatalf("second fit: %v", err)
			}
			b1, b2 := encodeModel(t, e, m1), encodeModel(t, e, m2)
			if !bytes.Equal(b1, b2) {
				t.Errorf("refit not deterministic:\nfirst:  %s\nsecond: %s", b1, b2)
			}
		})
	}
}

// TestConformanceForecastShape pins the forecast contract: exactly horizon
// values, all finite, for both a named and the default ("") keyword.
func TestConformanceForecastShape(t *testing.T) {
	x := conformanceTensor()
	const horizon = 12
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			e, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := e.Fit(x.Clone(), conformanceOpts())
			if err != nil {
				t.Fatalf("fit: %v", err)
			}
			for _, kw := range []string{"", "wave"} {
				fc, err := e.Forecast(m, kw, horizon)
				if err != nil {
					t.Fatalf("Forecast(%q): %v", kw, err)
				}
				if len(fc) != horizon {
					t.Fatalf("Forecast(%q) returned %d values, want %d", kw, len(fc), horizon)
				}
				for i, v := range fc {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("Forecast(%q)[%d] = %v, want finite", kw, i, v)
					}
				}
			}
			if _, err := e.Forecast(m, "no-such-keyword", horizon); err == nil {
				t.Error("Forecast of unknown keyword succeeded, want error")
			}
		})
	}
}

// TestConformanceCancellation pins cooperative cancellation: a pre-cancelled
// context stops every engine before it returns a model, with an error that
// unwraps to context.Canceled.
func TestConformanceCancellation(t *testing.T) {
	x := conformanceTensor()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			e, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := conformanceOpts()
			opts.Context = ctx
			m, err := e.Fit(x.Clone(), opts)
			if err == nil {
				t.Fatal("fit with cancelled context succeeded")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want wrap of context.Canceled", err)
			}
			if m != nil {
				t.Fatalf("cancelled fit leaked a partial model: %v", m)
			}
		})
	}
}

// TestConformanceRejectsNonFinite pins the numcheck boundary: an Inf cell is
// rejected with the typed numcheck error before any fitting work.
func TestConformanceRejectsNonFinite(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			e, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			x := conformanceTensor()
			x.Set(1, 0, 10, math.Inf(1))
			if _, err := e.Fit(x, conformanceOpts()); !errors.Is(err, numcheck.ErrInf) {
				t.Fatalf("err = %v, want wrap of numcheck.ErrInf", err)
			}
		})
	}
}

// TestConformanceEncodeDecodeRoundTrip pins persistence: decode(encode(m))
// re-encodes to the same bytes, and the revived model keeps its identity.
func TestConformanceEncodeDecodeRoundTrip(t *testing.T) {
	x := conformanceTensor()
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			e, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := e.Fit(x.Clone(), conformanceOpts())
			if err != nil {
				t.Fatalf("fit: %v", err)
			}
			if m.EngineName() != name {
				t.Fatalf("model EngineName = %q, want %q", m.EngineName(), name)
			}
			b := encodeModel(t, e, m)
			m2, err := e.DecodeModel(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("DecodeModel: %v", err)
			}
			if got := encodeModel(t, e, m2); !bytes.Equal(b, got) {
				t.Errorf("round trip changed encoding:\nbefore: %s\nafter:  %s", b, got)
			}
			if m2.Ticks() != x.N() || len(m2.Keywords()) != x.D() {
				t.Errorf("revived model shape %d×%d, want %d×%d",
					len(m2.Keywords()), m2.Ticks(), x.D(), x.N())
			}
			if got, want := modelDigest(t, e, m2, x), modelDigest(t, e, m, x); got != want {
				t.Errorf("round trip changed the numerics: simulate/forecast/cost %x, want %x", got, want)
			}
		})
	}
}

// modelDigest hashes the IEEE bits of what a model computes against x: every
// keyword's Simulate over x's ticks and Forecast(13), then CodingCost.
func modelDigest(t *testing.T, e ModelEngine, m Model, x *tensor.Tensor) [3]uint64 {
	t.Helper()
	sim, fc := fnv.New64a(), fnv.New64a()
	for _, kw := range m.Keywords() {
		s, err := e.Simulate(m, kw, x.N())
		if err != nil {
			t.Fatalf("Simulate(%q): %v", kw, err)
		}
		f, err := e.Forecast(m, kw, 13)
		if err != nil {
			t.Fatalf("Forecast(%q): %v", kw, err)
		}
		writeBits(sim, s)
		writeBits(fc, f)
	}
	c, err := e.CodingCost(m, x)
	if err != nil {
		t.Fatalf("CodingCost: %v", err)
	}
	return [3]uint64{sim.Sum64(), fc.Sum64(), math.Float64bits(c)}
}

func writeBits(h hash.Hash64, v []float64) {
	var b [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
}

// TestConformanceWireGolden pins the persisted form of the per-keyword
// engines. Each testdata body was fitted with conformanceOpts to the
// GoogleTrends tensor below (HIP under the promotion series the body
// carries) and written by EncodeModel; the FUNNEL body holds one-shot
// shocks and location scales. Every body must decode and re-encode
// byte-identically, also with a well-formed optional field its engine never
// writes added (the decoder ignores it), and the decoded model must compute
// the pinned bits: a hash of every keyword's Simulate and Forecast(13), and
// the CodingCost, against the regenerated tensor.
func TestConformanceWireGolden(t *testing.T) {
	x := datagen.GoogleTrends(datagen.Config{Locations: 2, Ticks: 78, Seed: 3}).Tensor
	for _, tc := range []struct {
		name   string
		digest [3]uint64
	}{
		{"epidemic", [3]uint64{0x13590fe246b1b3e0, 0xddc9a0b30495e856, 0x409bea9ebe273ac4}},
		{"funnel", [3]uint64{0x99d2a36ea26e71fb, 0xc889a9e1efd23b8f, 0x409f6ca00fd941c9}},
		{"hip", [3]uint64{0x668380b6a23ce2bd, 0xa02fb4aebdd6e063, 0x40a3692eb0ce226b}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := Lookup(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			golden, err := os.ReadFile(filepath.Join("testdata", tc.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			m, err := e.DecodeModel(bytes.NewReader(golden))
			if err != nil {
				t.Fatalf("DecodeModel: %v", err)
			}
			if got := encodeModel(t, e, m); !bytes.Equal(got, golden) {
				t.Errorf("re-encoding changed the wire form:\ngot:  %s\nwant: %s", got, golden)
			}
			if got := modelDigest(t, e, m, x); got != tc.digest {
				t.Errorf("simulate/forecast/cost bits %#x, want %#x", got, tc.digest)
			}

			var fields map[string]json.RawMessage
			if err := json.Unmarshal(golden, &fields); err != nil {
				t.Fatal(err)
			}
			for key, v := range map[string]string{"promotion": "[1, 2]", "local_scales": "[[1, 2]]"} {
				if _, ok := fields[key]; !ok {
					fields[key] = json.RawMessage(v)
				}
			}
			extra, err := json.Marshal(fields)
			if err != nil {
				t.Fatal(err)
			}
			m2, err := e.DecodeModel(bytes.NewReader(extra))
			if err != nil {
				t.Fatalf("DecodeModel with unwritten fields: %v", err)
			}
			if got := encodeModel(t, e, m2); !bytes.Equal(got, golden) {
				t.Errorf("an unwritten field reached the model:\ngot:  %s\nwant: %s", got, golden)
			}
		})
	}
}

// TestConformanceCodingCostFinite pins that CodingCost of a model against its
// own training tensor is finite and positive for every engine — the property
// AutoFit's comparison rests on.
func TestConformanceCodingCostFinite(t *testing.T) {
	x := conformanceTensor()
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			e, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := e.Fit(x.Clone(), conformanceOpts())
			if err != nil {
				t.Fatalf("fit: %v", err)
			}
			c, err := e.CodingCost(m, x)
			if err != nil {
				t.Fatalf("CodingCost: %v", err)
			}
			if math.IsNaN(c) || math.IsInf(c, 0) || c <= 0 {
				t.Fatalf("CodingCost = %v, want finite positive", c)
			}
		})
	}
}

func TestLookupAndNames(t *testing.T) {
	names := Names()
	want := []string{"dspot", "epidemic", "funnel", "hip"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	if _, err := Lookup(""); err != nil {
		t.Errorf(`Lookup("") = %v, want default engine`, err)
	}
	if _, err := Lookup(Auto); err == nil {
		t.Error("Lookup(auto) succeeded, want error (auto is AutoFit, not an engine)")
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup(nope) succeeded, want error")
	}
}
