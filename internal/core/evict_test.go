package core

import (
	"errors"
	"reflect"
	"testing"

	"dspot/internal/tensor"
)

// TestStreamRetentionBoundsMemory drives 10 retention windows of data
// through a bounded stream in both modes and pins the memory contract: the
// live length never exceeds the horizon plus one eviction chunk, while the
// absolute head keeps counting and the model stays valid.
func TestStreamRetentionBoundsMemory(t *testing.T) {
	const retention = 128
	full := grammyLike(10*retention, 33)
	mk := map[string]func() *Stream{
		"batch": func() *Stream {
			return NewStream(FitOptions{DisableGrowth: true}, 26)
		},
		"incremental": func() *Stream {
			return NewIncrementalStream(FitOptions{DisableGrowth: true}, 26,
				IncrementalConfig{TailWindow: 52})
		},
	}
	for name, newStream := range mk {
		t.Run(name, func(t *testing.T) {
			s := newStream()
			s.SetRetention(retention)
			chunk := retention / 8
			evicted := 0
			for i, v := range full {
				rec, err := s.AppendAtCtx(nil, -1, v)
				if err != nil {
					t.Fatal(err)
				}
				evicted += rec.EvictedTicks
				if s.Len() > retention+chunk {
					t.Fatalf("tick %d: live length %d exceeds horizon %d + chunk %d",
						i, s.Len(), retention, chunk)
				}
				if got := s.Head(); got != int64(i+1) {
					t.Fatalf("tick %d: Head = %d, want %d", i, got, i+1)
				}
			}
			if s.EvictedTicks() == 0 || int64(evicted) != s.EvictedTicks() {
				t.Fatalf("receipts count %d evicted ticks, stream reports %d",
					evicted, s.EvictedTicks())
			}
			if s.EvictedTicks()+int64(s.Len()) != int64(len(full)) {
				t.Fatalf("evicted %d + live %d != appended %d",
					s.EvictedTicks(), s.Len(), len(full))
			}
			if !s.Ready() {
				t.Fatal("bounded stream never fitted")
			}
			if err := s.Model().Validate(); err != nil {
				t.Fatalf("model invalid after evictions: %v", err)
			}
			if fc := s.Forecast(26); len(fc) < 26 {
				t.Fatalf("short forecast after evictions: %d", len(fc))
			}
		})
	}
}

// TestStreamRestoreBitIdenticalAcrossEviction is the eviction-boundary
// variant of the snapshot equivalence contract: a snapshot taken after the
// retention horizon has already folded ticks away must restore to a stream
// that continues bit-identically — evictions, refits and debt included.
func TestStreamRestoreBitIdenticalAcrossEviction(t *testing.T) {
	opts := FitOptions{DisableGrowth: true}
	full := grammyLike(700, 91)
	mkStream := func() *Stream {
		s := NewIncrementalStream(opts, 26, IncrementalConfig{TailWindow: 52, DebtLimit: 120})
		s.SetRetention(160)
		return s
	}
	s1 := mkStream()
	if _, err := s1.Append(full[:400]...); err != nil {
		t.Fatal(err)
	}
	if s1.EvictedTicks() == 0 {
		t.Fatal("scenario should have evicted before the snapshot")
	}
	if !s1.Ready() {
		t.Fatal("stream not fitted after seed")
	}
	snap := s1.State()
	if snap.Evicted == 0 || snap.Retention != 160 {
		t.Fatalf("snapshot missing eviction state: %+v", snap)
	}
	s2 := RestoreStream(opts, snap)

	for _, v := range full[400:] {
		r1, err1 := s1.Append(v)
		r2, err2 := s2.Append(v)
		if r1 != r2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("divergent append outcome: live (%v,%v) restored (%v,%v)", r1, err1, r2, err2)
		}
	}
	st1, st2 := s1.State(), s2.State()
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("states diverged after identical appends:\nlive:     %+v\nrestored: %+v", st1, st2)
	}
	if !reflect.DeepEqual(s1.Forecast(52), s2.Forecast(52)) {
		t.Fatal("forecasts diverged after identical appends")
	}
}

// TestAppendAtDuplicateAndGap pins the positioned-append semantics:
// replays drop idempotently, partial overlaps keep only the novel suffix,
// forward gaps fill with missing ticks, and an oversized gap is rejected
// whole with ErrGapTooLarge.
func TestAppendAtDuplicateAndGap(t *testing.T) {
	s := NewStream(FitOptions{DisableGrowth: true}, 1000)
	if _, err := s.AppendAtCtx(nil, -1, 1, 2, 3); err != nil {
		t.Fatal(err)
	}

	// Full replay: pure no-op success.
	rec, err := s.AppendAtCtx(nil, 0, 1, 2, 3)
	if err != nil || rec.DroppedTicks != 3 || s.Len() != 3 {
		t.Fatalf("replay: rec=%+v err=%v len=%d", rec, err, s.Len())
	}
	// Partial overlap: the covered prefix drops, the novel suffix lands.
	rec, err = s.AppendAtCtx(nil, 2, 9, 4)
	if err != nil || rec.DroppedTicks != 1 || s.Len() != 4 {
		t.Fatalf("partial overlap: rec=%+v err=%v len=%d", rec, err, s.Len())
	}
	if s.seq[2] != 3 || s.seq[3] != 4 {
		t.Fatalf("late tick rewrote history: %v", s.seq)
	}
	if s.DroppedTicks() != 4 {
		t.Fatalf("DroppedTicks = %d, want 4", s.DroppedTicks())
	}

	// Forward gap: bridged with missing ticks.
	rec, err = s.AppendAtCtx(nil, 6, 5)
	if err != nil || rec.GapTicks != 2 || s.Len() != 7 {
		t.Fatalf("gap fill: rec=%+v err=%v len=%d", rec, err, s.Len())
	}
	if !tensor.IsMissing(s.seq[4]) || !tensor.IsMissing(s.seq[5]) || s.seq[6] != 5 {
		t.Fatalf("gap not bridged with missing ticks: %v", s.seq)
	}
	if s.GapTicks() != 2 || s.Head() != 7 {
		t.Fatalf("GapTicks=%d Head=%d", s.GapTicks(), s.Head())
	}

	// A gap past the limit is rejected whole: no filler, no values, no error
	// besides the typed one.
	s.SetRetention(64)
	if _, err := s.AppendAtCtx(nil, s.Head()+int64(4*64)+1, 8); !errors.Is(err, ErrGapTooLarge) {
		t.Fatalf("oversized gap: err=%v, want ErrGapTooLarge", err)
	}
	if s.Len() != 7 || s.Head() != 7 {
		t.Fatalf("rejected append mutated the stream: len=%d head=%d", s.Len(), s.Head())
	}
	// Exactly at the limit is accepted.
	if _, err := s.AppendAtCtx(nil, s.Head()+int64(4*64), 8); err != nil {
		t.Fatalf("gap at the limit rejected: %v", err)
	}
}

// countingGate is a RefitGate stub tracking attempts and admitting only
// when open.
type countingGate struct {
	open     bool
	attempts int
	admitted int
}

func (g *countingGate) TryAcquire() (func(), bool) {
	g.attempts++
	if !g.open {
		return nil, false
	}
	g.admitted++
	return func() {}, true
}

// TestRefitGateDefersConsolidation pins the desynchronisation contract: a
// refused gate defers the due refit without losing the trigger state, the
// receipt reports the deferral, and the refit fires as soon as the gate
// admits. RefitNow stays exempt — operator intent bypasses the gate.
func TestRefitGateDefersConsolidation(t *testing.T) {
	opts := FitOptions{DisableGrowth: true}
	full := grammyLike(300, 12)
	s := NewStream(opts, 8)
	if _, err := s.Append(full[:200]...); err != nil {
		t.Fatal(err)
	}
	if !s.Ready() {
		t.Fatal("seed fit missing")
	}
	gate := &countingGate{}
	s.SetRefitGate(gate)

	deferred := 0
	for _, v := range full[200:216] {
		rec, err := s.AppendAtCtx(nil, -1, v)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Refitted {
			t.Fatal("closed gate admitted a refit")
		}
		if rec.Deferred {
			deferred++
		}
	}
	// 16 ticks past a cadence of 8: every tick from the 8th on is due.
	if deferred != 9 || s.DeferredRefits() != 9 || gate.attempts != 9 {
		t.Fatalf("deferred=%d DeferredRefits=%d attempts=%d, want 9 each",
			deferred, s.DeferredRefits(), gate.attempts)
	}

	gate.open = true
	rec, err := s.AppendAtCtx(nil, -1, full[216])
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Refitted || gate.admitted != 1 {
		t.Fatalf("open gate should admit the overdue refit: rec=%+v admitted=%d", rec, gate.admitted)
	}

	// RefitNow bypasses a closed gate.
	gate.open = false
	attempts := gate.attempts
	if err := s.RefitNow(nil); err != nil {
		t.Fatal(err)
	}
	if gate.attempts != attempts {
		t.Fatal("RefitNow consulted the gate")
	}
}

// TestRefitJitterStaggersCadence pins the jittered batch trigger: with
// frac=0.8 and cadence 10 the refit lands on the 14th tick after the last
// one, not the 10th.
func TestRefitJitterStaggersCadence(t *testing.T) {
	opts := FitOptions{DisableGrowth: true}
	full := grammyLike(300, 12)
	s := NewStream(opts, 10)
	if _, err := s.Append(full[:200]...); err != nil {
		t.Fatal(err)
	}
	s.SetRefitJitter(0.8)
	if s.debtJitter() != 4 {
		t.Fatalf("debtJitter = %v, want 4", s.debtJitter())
	}
	refitAt := -1
	for i, v := range full[200:220] {
		refitted, err := s.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		if refitted {
			refitAt = i + 1
			break
		}
	}
	if refitAt != 14 {
		t.Fatalf("jittered refit fired after %d ticks, want 14", refitAt)
	}

	s.SetRefitJitter(1.5) // out of range: resets to exact cadence
	if s.jitterFrac != 0 || s.debtJitter() != 0 {
		t.Fatal("out-of-range jitter not reset")
	}
}

// TestSetRetentionClamps pins the horizon bounds: tiny horizons clamp up to
// minRetention, non-positive disables.
func TestSetRetentionClamps(t *testing.T) {
	s := NewStream(FitOptions{}, 26)
	s.SetRetention(1)
	if s.Retention() != minRetention {
		t.Fatalf("Retention = %d, want clamp to %d", s.Retention(), minRetention)
	}
	s.SetRetention(0)
	if s.Retention() != 0 {
		t.Fatal("SetRetention(0) should disable the bound")
	}
}
