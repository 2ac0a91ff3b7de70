// Package dataset provides on-disk interchange for tensors and fitted
// models: a long-form CSV format for (keyword, location, time, count)
// tuples — the shape web-activity exports come in — and JSON round-tripping
// for fitted Δ-SPOT models.
package dataset

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"dspot/internal/core"
	"dspot/internal/tensor"
)

// WriteCSV writes the tensor in long form with a header row:
// keyword,location,tick,count. Missing cells are written with an empty
// count field.
func WriteCSV(w io.Writer, x *tensor.Tensor) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"keyword", "location", "tick", "count"}); err != nil {
		return err
	}
	for i := 0; i < x.D(); i++ {
		for j := 0; j < x.L(); j++ {
			seq := x.Local(i, j)
			for t, v := range seq {
				count := ""
				if !tensor.IsMissing(v) {
					count = strconv.FormatFloat(v, 'g', -1, 64)
				}
				rec := []string{x.Keywords[i], x.Locations[j], strconv.Itoa(t), count}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses the long-form CSV written by WriteCSV (or any file with
// the same header). Axis orders follow first appearance; the duration is
// the maximum tick + 1; absent cells and empty counts are missing.
func ReadCSV(r io.Reader) (*tensor.Tensor, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	if len(header) != 4 || header[0] != "keyword" || header[1] != "location" ||
		header[2] != "tick" || header[3] != "count" {
		return nil, fmt.Errorf("dataset: unexpected header %v", header)
	}

	type cell struct {
		kw, loc string
		tick    int
		val     float64 // NaN = missing
	}
	var cells []cell
	kwIndex := map[string]int{}
	locIndex := map[string]int{}
	var kws, locs []string
	maxTick := -1
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		tick, err := strconv.Atoi(rec[2])
		if err != nil || tick < 0 {
			return nil, fmt.Errorf("dataset: line %d: bad tick %q", line, rec[2])
		}
		val := math.NaN()
		if rec[3] != "" {
			val, err = strconv.ParseFloat(rec[3], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad count %q", line, rec[3])
			}
			if val < 0 {
				return nil, fmt.Errorf("dataset: line %d: negative count %g", line, val)
			}
		}
		if _, ok := kwIndex[rec[0]]; !ok {
			kwIndex[rec[0]] = len(kws)
			kws = append(kws, rec[0])
		}
		if _, ok := locIndex[rec[1]]; !ok {
			locIndex[rec[1]] = len(locs)
			locs = append(locs, rec[1])
		}
		if tick > maxTick {
			maxTick = tick
		}
		cells = append(cells, cell{rec[0], rec[1], tick, val})
	}
	if maxTick < 0 || len(kws) == 0 || len(locs) == 0 {
		return nil, fmt.Errorf("dataset: no data rows")
	}
	x := tensor.New(kws, locs, maxTick+1)
	// Cells absent from the file are missing, not zero.
	for i := 0; i < x.D(); i++ {
		for j := 0; j < x.L(); j++ {
			seq := x.Local(i, j)
			for t := range seq {
				seq[t] = tensor.Missing
			}
		}
	}
	for _, c := range cells {
		x.Set(kwIndex[c.kw], locIndex[c.loc], c.tick, c.val)
	}
	return x, nil
}

// SaveCSV writes the tensor to a file path.
func SaveCSV(path string, x *tensor.Tensor) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteCSV(f, x); err != nil {
		return err
	}
	return f.Close()
}

// LoadCSV reads a tensor from a file path.
func LoadCSV(path string) (*tensor.Tensor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f)
}

// modelJSON is the serialised form of a fitted model. NaN cannot appear in
// JSON, so TEta's NoGrowth sentinel is kept as-is (an int) and float fields
// are finite by construction.
type modelJSON struct {
	Keywords  []string             `json:"keywords"`
	Locations []string             `json:"locations"`
	Ticks     int                  `json:"ticks"`
	Global    []core.KeywordParams `json:"global"`
	LocalN    [][]float64          `json:"local_n,omitempty"`
	LocalR    [][]float64          `json:"local_r,omitempty"`
	Shocks    []core.Shock         `json:"shocks,omitempty"`
	Scale     []float64            `json:"scale,omitempty"`
}

// WriteModel serialises a fitted model as indented JSON.
func WriteModel(w io.Writer, m *core.Model) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(modelJSON{
		Keywords: m.Keywords, Locations: m.Locations, Ticks: m.Ticks,
		Global: m.Global, LocalN: m.LocalN, LocalR: m.LocalR,
		Shocks: m.Shocks, Scale: m.Scale,
	})
}

// ReadModel parses a model written by WriteModel and validates its shape.
func ReadModel(r io.Reader) (*core.Model, error) {
	var mj modelJSON
	if err := json.NewDecoder(r).Decode(&mj); err != nil {
		return nil, fmt.Errorf("dataset: decoding model: %w", WireError(err))
	}
	m := &core.Model{
		Keywords: mj.Keywords, Locations: mj.Locations, Ticks: mj.Ticks,
		Global: mj.Global, LocalN: mj.LocalN, LocalR: mj.LocalR,
		Shocks: mj.Shocks, Scale: mj.Scale,
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return m, nil
}

// WireError rewrites a JSON type mismatch in err to name the wire field and
// the JSON types, as in `field "ticks": got a JSON string, want an
// integer`. encoding/json's own message names the Go struct type and
// package the body decodes into, which are no part of the wire format and
// change whenever the code does. Any other error is returned as it is.
func WireError(err error) error {
	var te *json.UnmarshalTypeError
	if !errors.As(err, &te) {
		return err
	}
	got := "a JSON " + te.Value // string, number, array or object
	switch {
	case te.Value == "bool":
		got = "a JSON boolean"
	case strings.HasPrefix(te.Value, "number "): // a number the type cannot hold
		got = "the JSON " + te.Value
	}
	if te.Field == "" {
		return fmt.Errorf("got %s, want %s", got, wireType(te.Type))
	}
	return fmt.Errorf("field %q: got %s, want %s", te.Field, got, wireType(te.Type))
}

// wireType names the JSON value a Go type decodes from.
func wireType(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return "an integer"
	case reflect.Float32, reflect.Float64:
		return "a number"
	case reflect.String:
		return "a string"
	case reflect.Bool:
		return "true or false"
	case reflect.Slice, reflect.Array:
		return "an array"
	default:
		return "an object"
	}
}

// SaveModel writes a model to a file path.
func SaveModel(path string, m *core.Model) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteModel(f, m); err != nil {
		return err
	}
	return f.Close()
}

// LoadModel reads a model from a file path.
func LoadModel(path string) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadModel(f)
}

// WriteSeriesCSV writes named, aligned series as columns:
// tick,name1,name2,... — the format the experiment harness emits for every
// figure so results can be re-plotted.
func WriteSeriesCSV(w io.Writer, names []string, series [][]float64) error {
	if len(names) != len(series) {
		return fmt.Errorf("dataset: %d names for %d series", len(names), len(series))
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"tick"}, names...)); err != nil {
		return err
	}
	n := 0
	for _, s := range series {
		if len(s) > n {
			n = len(s)
		}
	}
	for t := 0; t < n; t++ {
		rec := make([]string, 0, len(series)+1)
		rec = append(rec, strconv.Itoa(t))
		for _, s := range series {
			if t >= len(s) || math.IsNaN(s[t]) {
				rec = append(rec, "")
				continue
			}
			rec = append(rec, strconv.FormatFloat(s[t], 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SortedKeys returns the sorted keys of a string-keyed map of float64 —
// a helper for deterministic report printing.
func SortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
