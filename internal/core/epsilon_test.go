package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// epsilonOf is the n-tick ε(t) of shocks, without projection.
func epsilonOf(shocks []Shock, n int) []float64 {
	return epsilonInto(make([]float64, n), 0, shocks, false, nil)
}

// epsilonRef is ε(t) by its definition, one tick at a time: 1 plus, shock
// by shock in order, every occurrence covering t — its row strength, or,
// past the end of a cyclic shock's row when projecting, the projected
// strength (draws[k] when given, futureStrength of the row otherwise) if
// that is positive.
func epsilonRef(shocks []Shock, t int, project bool, draws []float64) float64 {
	e := 1.0
	for k, s := range shocks {
		for m := 0; m == 0 || s.Period > 0; m++ {
			start := s.Start + m*s.Period
			if start > t {
				break
			}
			if t >= start+s.Width {
				continue
			}
			if m < len(s.Strength) {
				e += s.Strength[m]
				continue
			}
			if !project || s.Period <= 0 {
				continue
			}
			f := futureStrength(s.Strength)
			if draws != nil {
				f = draws[k]
			}
			if f > 0 {
				e += f
			}
		}
	}
	return e
}

const epsilonTicks = 60 // the fitted range the shocks are drawn against

// epsilonCase is one draw of the ε(t) property: Validate-legal one-shot and
// cyclic shocks (Width ≤ Period, Start inside the fitted range) whose rows
// may be shorter or longer than their occurrence count, all zero, or end in
// two zeros, with Local matrices whose rows may be short; a window
// [T0, T0+K) that may start past the fitted range; projection on or off,
// from the rows or from draws; and one strength edit for a windowed
// rebuild.
type epsilonCase struct {
	Shocks   []Shock
	Project  bool
	Draws    []float64
	T0, K    int
	Loc      int // location for EpsilonLocal; may be past a Local row
	EditS    int // shock whose occurrence EditM changes; -1 for none
	EditM    int
	Strength float64
}

func (epsilonCase) Generate(r *rand.Rand, _ int) reflect.Value {
	const n, locs = epsilonTicks, 3
	strength := func() float64 {
		if r.Intn(4) == 0 {
			return 0
		}
		return 20 * r.Float64()
	}
	c := epsilonCase{Project: r.Intn(2) == 0, EditS: -1}
	for k := r.Intn(5); k > 0; k-- {
		s := Shock{Start: r.Intn(n)}
		if r.Intn(3) > 0 {
			s.Period = 1 + r.Intn(24)
			s.Width = 1 + r.Intn(s.Period)
		} else {
			s.Width = 1 + r.Intn(12)
		}
		occ := s.Occurrences(n)
		row := make([]float64, max(0, occ+r.Intn(7)-3))
		switch kind := r.Intn(4); {
		case kind == 0: // all zero
		case kind == 1 && len(row) >= 2: // ending in two zeros
			for m := range row[:len(row)-2] {
				row[m] = strength()
			}
		default:
			for m := range row {
				row[m] = strength()
			}
		}
		s.Strength = row
		if r.Intn(2) == 0 {
			s.Local = make([][]float64, len(row))
			for m := range s.Local {
				s.Local[m] = make([]float64, locs-r.Intn(2))
				for j := range s.Local[m] {
					s.Local[m][j] = strength()
				}
			}
		}
		c.Shocks = append(c.Shocks, s)
	}
	if r.Intn(2) == 0 {
		c.Draws = make([]float64, len(c.Shocks))
		for k := range c.Draws {
			c.Draws[k] = strength()
		}
	}
	c.T0 = r.Intn(2 * n)
	c.K = 1
	if r.Intn(3) > 0 {
		c.K += r.Intn(n)
	}
	c.Loc = r.Intn(locs + 1)
	if len(c.Shocks) > 0 {
		c.EditS = r.Intn(len(c.Shocks))
		if row := c.Shocks[c.EditS].Strength; len(row) > 0 {
			c.EditM = r.Intn(len(row))
		} else {
			c.EditS = -1
		}
		c.Strength = strength()
	}
	return reflect.ValueOf(c)
}

// checkEpsilon checks epsilonInto on one case against the per-tick
// reference: a full build over [0, T0+K), the window alone in a dirty
// buffer it must overwrite in place, the Model reads EpsilonGlobal and
// EpsilonLocal, and, without projection, a rebuild of the edited
// occurrence's window against a fresh full build.
func checkEpsilon(t *testing.T, c epsilonCase) bool {
	t.Helper()
	n := c.T0 + c.K
	full := epsilonInto(make([]float64, n), 0, c.Shocks, c.Project, c.Draws)
	for tick := range full {
		if !sameBits(full[tick:tick+1], []float64{epsilonRef(c.Shocks, tick, c.Project, c.Draws)}) {
			t.Logf("tick %d: built %v, defined %v", tick, full[tick], epsilonRef(c.Shocks, tick, c.Project, c.Draws))
			return false
		}
	}
	win := make([]float64, c.K)
	for i := range win {
		win[i] = 99
	}
	if got := epsilonInto(win, c.T0, c.Shocks, c.Project, c.Draws); &got[0] != &win[0] || !sameBits(win, full[c.T0:]) {
		t.Logf("window [%d, %d) differs from the full build", c.T0, n)
		return false
	}

	m := &Model{Keywords: []string{"k"}, Locations: []string{"a", "b", "c"}, Ticks: epsilonTicks,
		Global: make([]KeywordParams, 1), Shocks: c.Shocks,
		LocalN: [][]float64{{1, 2, 3}}, LocalR: [][]float64{{0.1, 0.2, 0.3}}}
	local := make([]Shock, len(c.Shocks))
	for k, s := range c.Shocks {
		if s.Local != nil {
			s.Strength = make([]float64, len(s.Local))
			for occ, row := range s.Local {
				if c.Loc < len(row) {
					s.Strength[occ] = row[c.Loc]
				}
			}
		}
		local[k] = s
	}
	wantGlobal, wantLocal := make([]float64, n), make([]float64, n)
	for tick := range wantLocal {
		wantGlobal[tick] = epsilonRef(c.Shocks, tick, false, nil)
		wantLocal[tick] = epsilonRef(local, tick, false, nil)
	}
	if !sameBits(m.EpsilonGlobal(0, n), wantGlobal) {
		t.Log("EpsilonGlobal differs from the definition")
		return false
	}
	if !sameBits(m.EpsilonLocal(0, c.Loc, n), wantLocal) {
		t.Logf("EpsilonLocal at location %d differs from the definition", c.Loc)
		return false
	}

	if c.EditS < 0 {
		return true
	}
	shocks := CopyShocks(c.Shocks)
	eps := epsilonOf(shocks, n)
	s := &shocks[c.EditS]
	s.Strength[c.EditM] = c.Strength
	if lo := s.OccurrenceStart(c.EditM); lo < n {
		epsilonInto(eps[lo:min(lo+s.Width, n)], lo, shocks, false, nil)
	}
	if !sameBits(eps, epsilonOf(shocks, n)) {
		t.Logf("rebuilding shock %d occurrence %d's window differs from a full build", c.EditS, c.EditM)
		return false
	}
	return true
}

// epsilonInto is the one ε(t) builder; the per-tick definition above is its
// independent oracle, since the stream forecast and the Model reads share
// the builder. The fixed cases are two cyclic shocks with overlapping
// occurrences and a one-off inside them, each occurrence strength edited in
// turn (the last occurrence's window is clipped by the range), where the
// accumulation order over shared ticks is what a windowed rebuild must
// reproduce.
func TestEpsilonIntoMatchesDefinition(t *testing.T) {
	for _, edit := range [][2]int{{0, 2}, {1, 1}, {2, 0}, {0, 4}} {
		for _, project := range []bool{false, true} {
			c := epsilonCase{Shocks: hotpathShocks(), Project: project, T0: 0, K: 96,
				EditS: edit[0], EditM: edit[1], Strength: 1.37 * hotpathShocks()[edit[0]].Strength[edit[1]]}
			if !checkEpsilon(t, c) {
				t.Fatalf("hotpath shocks, edit %v, project %v", edit, project)
			}
		}
	}
	prop := func(c epsilonCase) bool { return checkEpsilon(t, c) }
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(19))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}

	// The builder allocates nothing, windowed or whole, projecting or not.
	shocks := hotpathShocks()
	buf := make([]float64, 96)
	if a := testing.AllocsPerRun(50, func() {
		epsilonInto(buf, 0, shocks, false, nil)
		epsilonInto(buf[:1], 200, shocks, true, nil)
	}); a != 0 {
		t.Fatalf("epsilonInto: %.0f allocs/op, want 0", a)
	}
}
