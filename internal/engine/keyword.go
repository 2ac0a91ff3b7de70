package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"dspot/internal/numcheck"
	"dspot/internal/tensor"
)

// keywordEngine is the ModelEngine of every family whose model is one
// parameter set P per keyword, each fitted to its keyword's global sequence
// (epidemic, FUNNEL, HIP). The adapter owns the model plumbing — the fit
// loop, keyword routing, the MDL sum, the wire form and the shape checks —
// and the family states only its numerics in the fields.
type keywordEngine[P any] struct {
	name string
	// fit fits one keyword's global sequence; ctx is the fit's context.
	fit func(ctx context.Context, seq []float64, opts FitOptions) (P, error)
	// simulate runs p for n ticks; forecast returns the horizon ticks after
	// a ticks-long training window. promo is the model's promotion series
	// (nil unless keepsPromotion).
	simulate func(p P, n int, promo []float64) []float64
	forecast func(p P, ticks, horizon int, promo []float64) []float64
	// descCost is p's MDL description cost over an n-tick sequence.
	descCost func(p P, n int) float64
	// check validates keyword i's decoded parameters.
	check func(i int, p P) error
	// events lists the events detected in one keyword's parameters (nil: the
	// family detects none).
	events func(keyword string, p P) []Event
	// fitLocal, when set, fits per-location scales of a keyword's global
	// curve unless the fit is GlobalOnly.
	fitLocal func(p P, locals [][]float64) []float64
	// keepsPromotion stores opts.Promotion in the model, so simulation and
	// forecasting replay the drive the fit conditioned on.
	keepsPromotion bool
}

// keywordState is a per-keyword model's persisted state. Its field order is
// the wire format every version has written (TestConformanceWireGolden pins
// it); Promotion and LocalScales are written only by the families that keep
// them.
type keywordState[P any] struct {
	Engine      string      `json:"engine"`
	Keywords    []string    `json:"keywords"`
	Locations   []string    `json:"locations"`
	Ticks       int         `json:"ticks"`
	Params      []P         `json:"params"`
	Promotion   []float64   `json:"promotion,omitempty"`
	LocalScales [][]float64 `json:"local_scales,omitempty"`
}

// keywordModel is a fitted per-keyword model: its state and the engine whose
// numerics read it. Every such model lists its events, [] when it has none.
type keywordModel[P any] struct {
	eng *keywordEngine[P]
	s   keywordState[P]
}

func (m *keywordModel[P]) EngineName() string  { return m.eng.name }
func (m *keywordModel[P]) Keywords() []string  { return m.s.Keywords }
func (m *keywordModel[P]) Locations() []string { return m.s.Locations }
func (m *keywordModel[P]) Ticks() int          { return m.s.Ticks }

func (m *keywordModel[P]) Validate() error {
	s, name := &m.s, m.eng.name
	if s.Ticks <= 0 {
		return fmt.Errorf("%s model: non-positive ticks %d", name, s.Ticks)
	}
	if len(s.Params) != len(s.Keywords) || len(s.Keywords) == 0 {
		return fmt.Errorf("%s model: %d keywords, %d parameter sets",
			name, len(s.Keywords), len(s.Params))
	}
	if s.LocalScales != nil && len(s.LocalScales) != len(s.Keywords) {
		return fmt.Errorf("%s model: %d keywords, %d local-scale rows",
			name, len(s.Keywords), len(s.LocalScales))
	}
	for i, p := range s.Params {
		if err := m.eng.check(i, p); err != nil {
			return err
		}
	}
	if s.Promotion != nil {
		return numcheck.StrictSequence(name+" promotion", s.Promotion)
	}
	return nil
}

func (m *keywordModel[P]) Events() []Event {
	out := []Event{}
	if m.eng.events != nil {
		for i, p := range m.s.Params {
			out = append(out, m.eng.events(m.s.Keywords[i], p)...)
		}
	}
	return out
}

func (e *keywordEngine[P]) Name() string { return e.name }

func (e *keywordEngine[P]) Fit(x *tensor.Tensor, opts FitOptions) (Model, error) {
	if err := validateInput(x, &opts); err != nil {
		return nil, err
	}
	ctx := ctxOf(opts)
	m := &keywordModel[P]{eng: e, s: keywordState[P]{
		Engine:    e.name,
		Keywords:  append([]string(nil), x.Keywords...),
		Locations: append([]string(nil), x.Locations...),
		Ticks:     x.N(),
		Params:    make([]P, x.D()),
	}}
	if e.keepsPromotion && opts.Promotion != nil {
		m.s.Promotion = append([]float64(nil), opts.Promotion...)
	}
	if e.fitLocal != nil && !opts.GlobalOnly {
		m.s.LocalScales = make([][]float64, x.D())
	}
	for i := range m.s.Params {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("engine: %s fit cancelled: %w", e.name, err)
		}
		p, err := e.fit(ctx, x.Global(i), opts)
		if err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("engine: %s fit cancelled: %w", e.name, ctx.Err())
			}
			return nil, fmt.Errorf("engine: %s fit of keyword %q: %w", e.name, x.Keywords[i], err)
		}
		m.s.Params[i] = p
		if m.s.LocalScales != nil {
			locals := make([][]float64, x.L())
			for j := range locals {
				locals[j] = x.Local(i, j)
			}
			m.s.LocalScales[i] = e.fitLocal(p, locals)
		}
	}
	return m, nil
}

func (e *keywordEngine[P]) Simulate(m Model, keyword string, n int) ([]float64, error) {
	km, i, err := e.keyword(m, keyword)
	if err != nil {
		return nil, err
	}
	return e.simulate(km.s.Params[i], n, km.s.Promotion), nil
}

func (e *keywordEngine[P]) Forecast(m Model, keyword string, horizon int) ([]float64, error) {
	km, i, err := e.keyword(m, keyword)
	if err != nil {
		return nil, err
	}
	return e.forecast(km.s.Params[i], km.s.Ticks, horizon, km.s.Promotion), nil
}

func (e *keywordEngine[P]) CodingCost(m Model, x *tensor.Tensor) (float64, error) {
	km, err := e.model(m)
	if err != nil {
		return 0, err
	}
	n := x.N()
	cost := header(x.D(), n)
	for i := 0; i < x.D() && i < len(km.s.Params); i++ {
		p := km.s.Params[i]
		cost += e.descCost(p, n)
		cost += gaussianResidualCost(x.Global(i), e.simulate(p, n, km.s.Promotion))
	}
	return cost, nil
}

func (e *keywordEngine[P]) EncodeModel(w io.Writer, m Model) error {
	km, err := e.model(m)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(km.s)
}

func (e *keywordEngine[P]) DecodeModel(r io.Reader) (Model, error) {
	m := &keywordModel[P]{eng: e}
	if err := json.NewDecoder(r).Decode(&m.s); err != nil {
		return nil, fmt.Errorf("engine: decoding %s model: %w", e.name, err)
	}
	if m.s.Engine != "" && m.s.Engine != e.name {
		return nil, fmt.Errorf("engine: %s decoder got engine %q", e.name, m.s.Engine)
	}
	m.s.Engine = e.name
	// A field the family never writes is ignored, not carried.
	if !e.keepsPromotion {
		m.s.Promotion = nil
	}
	if e.fitLocal == nil {
		m.s.LocalScales = nil
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// model asserts that m was produced by this engine.
func (e *keywordEngine[P]) model(m Model) (*keywordModel[P], error) {
	km, ok := m.(*keywordModel[P])
	if !ok || km.eng != e {
		return nil, fmt.Errorf("engine: %s engine got a %s model", e.name, m.EngineName())
	}
	return km, nil
}

// keyword asserts m and resolves a keyword name against it ("" = first).
func (e *keywordEngine[P]) keyword(m Model, keyword string) (*keywordModel[P], int, error) {
	km, err := e.model(m)
	if err != nil {
		return nil, 0, err
	}
	i, err := keywordIndex(m, keyword)
	return km, i, err
}
