package registry

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"dspot/internal/core"
	"dspot/internal/tensor"
)

// FuzzDecodeManifest hammers the boot-time trust boundary: whatever bytes
// end up in manifest.json, the decoder must either reject them or return a
// manifest whose every entry upholds the invariants the registry assumes
// (valid unique ids, local file paths, positive versions).
func FuzzDecodeManifest(f *testing.F) {
	f.Add([]byte(`{"version":1,"models":[]}`))
	f.Add([]byte(`{"version":1,"models":[{"id":"a","version":1,"file":"models/a.json",` +
		`"created_unix":1,"updated_unix":2,"keywords":1,"locations":4,"ticks":300}]}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":1,"models":[{"id":"../x","version":1,"file":"models/x.json"}]}`))
	f.Add([]byte(`{"version":1,"models":[{"id":"a","version":1,"file":"/etc/passwd"}]}`))
	f.Add([]byte(`{"version":1,"models":[{"id":"a","version":0,"file":"m.json"}]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		mf, err := decodeManifest(data)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, e := range mf.Models {
			if err := ValidateID(e.ID); err != nil {
				t.Fatalf("decoder admitted bad id %q", e.ID)
			}
			if seen[e.ID] {
				t.Fatalf("decoder admitted duplicate id %q", e.ID)
			}
			seen[e.ID] = true
			if e.Version < 1 {
				t.Fatalf("decoder admitted version %d", e.Version)
			}
			if e.File == "" || filepath.IsAbs(e.File) || !filepath.IsLocal(e.File) {
				t.Fatalf("decoder admitted unsafe path %q", e.File)
			}
		}
	})
}

// FuzzRestoreState hammers the other persisted trust boundary: stream
// snapshot JSON, through restoreStream, the function boot restores streams
// with. Whatever bytes land in a streams/*.json file, it must either reject
// them or restore a stream whose Model/Forecast/State paths work without
// panicking, with no Inf or negative counts smuggled into the sequence.
func FuzzRestoreState(f *testing.F) {
	f.Add([]byte(`{"refit_every":30,"seq":[1,2,null,3],"fitted":false}`))
	f.Add([]byte(`{"refit_every":30,"seq":[],"fitted":true}`))
	f.Add([]byte(`{"refit_every":-5,"seq":[1],"since_refit":-9,"refits":-1}`))
	f.Add([]byte(`{"refit_every":10,"seq":[1e999]}`))
	f.Add([]byte(`{"refit_every":10,"seq":[-4,1,2]}`))
	f.Add([]byte(`{"refit_every":30,"seq":[1,2,3],"fitted":true,` +
		`"result":{"params":{"n":5,"beta":0.6,"delta":0.4,"gamma":0.3,"i0":0.01,` +
		`"t_eta":-1},"scale":1}}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"refit_every":30,"seq":[1,2],"log":"s@1.log"}`))
	f.Add([]byte(`{"refit_every":30,"seq":[1,2],"log":"../s@1.log"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, refits, log, err := restoreStream(data, core.FitOptions{Workers: 1, MaxOuterIter: 1, MaxShocks: 1})
		if err != nil {
			return
		}
		if _, ok := segmentOf(log); log != "" && !ok {
			t.Fatalf("decoder admitted segment name %q", log)
		}
		if refits < 0 {
			refits = 0 // refit counter is cosmetic; the stream must still work
		}
		for i, v := range s.State().Seq {
			if tensor.IsMissing(v) {
				continue
			}
			if math.IsInf(v, 0) || v < 0 {
				t.Fatalf("decoder admitted seq[%d] = %v", i, v)
			}
		}
		_ = s.Len()
		_ = s.Ready()
		_ = s.Model()
		_ = s.Forecast(3)
		_ = s.State()
	})
}

// FuzzDecodeTickLog hammers the tick-log trust boundary: whatever bytes a
// segment holds, decoding hands on records or stops — never a panic — and
// lets no negative position and no Inf or negative value past numcheck.
// The records it accepts re-encode to exactly the bytes they came from.
func FuzzDecodeTickLog(f *testing.F) {
	valid := appendTickRecord(appendTickRecord(nil, 0, []float64{1, 2}), 2, []float64{tensor.Missing})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                             // torn tail
	f.Add(append(bytes.Clone(valid), make([]byte, 40)...))  // zero fill
	f.Add(append(bytes.Clone(valid[:10]), valid[28:]...))   // bytes lost mid-segment
	f.Add(appendTickRecord(nil, -1, []float64{1}))          // negative position
	f.Add(appendTickRecord(nil, 0, []float64{math.Inf(1)})) // Inf
	f.Add(appendTickRecord(nil, 0, []float64{-3}))          // negative count
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var again []byte
		decodeTickLog(data, func(at int64, values []float64) bool {
			if at < 0 {
				t.Fatalf("decoder admitted position %d", at)
			}
			for i, v := range values {
				if math.IsInf(v, 0) || v < 0 {
					t.Fatalf("decoder admitted value[%d] = %v", i, v)
				}
			}
			again = appendTickRecord(again, at, values)
			return true
		})
		if !bytes.HasPrefix(data, again) {
			t.Fatal("accepted records do not re-encode to the bytes they were read from")
		}
	})
}
