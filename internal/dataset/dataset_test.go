package dataset

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dspot/internal/core"
	"dspot/internal/tensor"
)

func sampleTensor() *tensor.Tensor {
	x := tensor.New([]string{"a", "b"}, []string{"US", "JP"}, 3)
	v := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for t := 0; t < 3; t++ {
				x.Set(i, j, t, v)
				v += 1.5
			}
		}
	}
	x.Set(1, 0, 2, tensor.Missing)
	return x
}

func TestCSVRoundTrip(t *testing.T) {
	x := sampleTensor()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, x); err != nil {
		t.Fatal(err)
	}
	y, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if y.D() != x.D() || y.L() != x.L() || y.N() != x.N() {
		t.Fatalf("dims (%d,%d,%d)", y.D(), y.L(), y.N())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for tt := 0; tt < 3; tt++ {
				a, b := x.At(i, j, tt), y.At(i, j, tt)
				if tensor.IsMissing(a) != tensor.IsMissing(b) {
					t.Fatalf("missing mismatch at (%d,%d,%d)", i, j, tt)
				}
				if !tensor.IsMissing(a) && a != b {
					t.Fatalf("value mismatch at (%d,%d,%d): %g vs %g", i, j, tt, a, b)
				}
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"foo,bar\n",
		"keyword,location,tick,count\na,US,notanint,1\n",
		"keyword,location,tick,count\na,US,0,notafloat\n",
		"keyword,location,tick,count\na,US,-1,1\n",
		"keyword,location,tick,count\na,US,0,-5\n",
		"keyword,location,tick,count\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestReadCSVAbsentCellsAreMissing(t *testing.T) {
	in := "keyword,location,tick,count\na,US,0,1\na,US,2,3\n"
	x, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if x.N() != 3 {
		t.Fatalf("n = %d", x.N())
	}
	if !tensor.IsMissing(x.At(0, 0, 1)) {
		t.Fatal("absent cell should be missing")
	}
	if x.At(0, 0, 0) != 1 || x.At(0, 0, 2) != 3 {
		t.Fatal("present cells wrong")
	}
}

func TestSaveLoadCSVFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.csv")
	x := sampleTensor()
	if err := SaveCSV(path, x); err != nil {
		t.Fatal(err)
	}
	y, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if y.Total() != x.Total() {
		t.Fatalf("totals differ: %g vs %g", y.Total(), x.Total())
	}
	if _, err := LoadCSV(filepath.Join(dir, "absent.csv")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func sampleModel() *core.Model {
	return &core.Model{
		Keywords:  []string{"k1", "k2"},
		Locations: []string{"US", "JP"},
		Ticks:     100,
		Global: []core.KeywordParams{
			{N: 50, Beta: 0.5, Delta: 0.4, Gamma: 0.3, I0: 0.01, TEta: core.NoGrowth},
			{N: 20, Beta: 0.6, Delta: 0.5, Gamma: 0.4, I0: 0.02, Eta0: 0.2, TEta: 40},
		},
		LocalN: [][]float64{{30, 20}, {15, 5}},
		LocalR: [][]float64{{0, 0}, {0.1, 0.3}},
		Shocks: []core.Shock{{Keyword: 0, Period: 52, Start: 10, Width: 2,
			Strength: []float64{3, 4}, Local: [][]float64{{3, 0}, {4, 2}}}},
		Scale: []float64{10, 5},
	}
}

func TestModelRoundTrip(t *testing.T) {
	m := sampleModel()
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ticks != m.Ticks || len(got.Global) != 2 || len(got.Shocks) != 1 {
		t.Fatalf("round-trip lost structure: %+v", got)
	}
	if got.Global[1].TEta != 40 || got.Global[0].TEta != core.NoGrowth {
		t.Fatal("TEta not preserved")
	}
	if got.Shocks[0].Local[1][0] != 4 {
		t.Fatal("shock local matrix not preserved")
	}
	if got.LocalN[0][0] != 30 || got.LocalR[1][1] != 0.3 {
		t.Fatal("local matrices not preserved")
	}
}

func TestReadModelRejectsCorrupt(t *testing.T) {
	cases := []string{
		"not json",
		`{"keywords":["a"],"ticks":10,"global":[]}`,
		`{"keywords":["a"],"locations":["US"],"ticks":10,
		  "global":[{"N":1}],
		  "shocks":[{"Keyword":5,"Period":0,"Start":1,"Width":1,"Strength":[1]}]}`,
		`{"keywords":["a"],"locations":["US"],"ticks":10,
		  "global":[{"N":1}],
		  "shocks":[{"Keyword":0,"Period":0,"Start":99,"Width":1,"Strength":[1]}]}`,
	}
	for i, c := range cases {
		if _, err := ReadModel(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestSaveLoadModelFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	if err := SaveModel(path, sampleModel()); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Keywords[1] != "k2" {
		t.Fatal("keywords lost")
	}
	st, err := os.Stat(path)
	if err != nil || st.Size() == 0 {
		t.Fatal("model file empty")
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSeriesCSV(&buf, []string{"obs", "fit"},
		[][]float64{{1, 2, math.NaN()}, {1.5, 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	if lines[0] != "tick,obs,fit" {
		t.Fatalf("header %q", lines[0])
	}
	if lines[3] != "2,," {
		t.Fatalf("NaN/short row = %q", lines[3])
	}
}

func TestWriteSeriesCSVMismatch(t *testing.T) {
	if err := WriteSeriesCSV(&bytes.Buffer{}, []string{"a"}, nil); err == nil {
		t.Fatal("mismatch accepted")
	}
}

func TestSortedKeys(t *testing.T) {
	got := SortedKeys(map[string]float64{"b": 1, "a": 2, "c": 3})
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("SortedKeys = %v", got)
	}
}

// ReadModel reports a mistyped field by its wire name and JSON types.
func TestReadModelNamesWireField(t *testing.T) {
	for body, want := range map[string]string{
		`{"ticks": "x"}`:               `dataset: decoding model: field "ticks": got a JSON string, want an integer`,
		`{"ticks": 1.5}`:               `dataset: decoding model: field "ticks": got the JSON number 1.5, want an integer`,
		`{"keywords": {}}`:             `dataset: decoding model: field "keywords": got a JSON object, want an array`,
		`{"global": [{"N": true}]}`:    `dataset: decoding model: field "global.N": got a JSON boolean, want a number`,
		`{"shocks": [{"Start": "a"}]}`: `dataset: decoding model: field "shocks.Start": got a JSON string, want an integer`,
		`"model"`:                      `dataset: decoding model: got a JSON string, want an object`,
	} {
		if _, err := ReadModel(strings.NewReader(body)); err == nil || err.Error() != want {
			t.Errorf("ReadModel(%s) = %v, want %q", body, err, want)
		}
	}
}
