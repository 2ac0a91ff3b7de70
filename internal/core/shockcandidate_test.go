package core

import (
	"testing"

	"dspot/internal/stats"
)

// TestUnconfirmedCycle pins the rule that keeps a wide cycle out of stage B
// when the residual runs do not confirm its recurrences: at least nine
// occurrences, and fewer than a third of those other than the seed's own
// with a run starting in [start−2, start+width+2).
func TestUnconfirmedCycle(t *testing.T) {
	cycle := func(period, start, width, occ int) Shock {
		return Shock{Period: period, Start: start, Width: width, Strength: make([]float64, occ)}
	}
	runsAt := func(starts ...int) []stats.Peak {
		out := make([]stats.Peak, len(starts))
		for i, s := range starts {
			out[i] = stats.Peak{Start: s, Width: 1}
		}
		return out
	}
	// A period-20, width-3 cycle with ten occurrences (starts 5, 25, …,
	// 185) seeded at its first: three of the nine others keep it. Two runs
	// confirm the occurrences at 25 and 45; a third run decides, against
	// the occurrence at 105, whose window is [103, 110).
	edge := cycle(20, 5, 3, 10)
	for _, tc := range []struct {
		name      string
		s         Shock
		seedStart int
		runs      []stats.Peak
		want      bool
	}{
		{"period 4, 26 occurrences, nothing confirmed", cycle(4, 1, 1, 26), 41, nil, true},
		{"period 4, 26 occurrences, 2 of 25 confirmed", cycle(4, 1, 1, 26), 41, runsAt(13, 81), true},
		{"period 35, 16 occurrences, 7 of 15 confirmed", cycle(35, 20, 3, 16), 195,
			runsAt(20, 90, 160, 230, 300, 370, 440), false},
		{"period 35, 16 occurrences, 5 of 15 confirmed", cycle(35, 20, 3, 16), 195,
			runsAt(20, 90, 160, 230, 300), false},
		{"period 35, 16 occurrences, 4 of 15 confirmed", cycle(35, 20, 3, 16), 195,
			runsAt(20, 90, 160, 230), true},
		{"period 52, 10 occurrences, all confirmed", cycle(52, 4, 4, 10), 56,
			runsAt(4, 108, 160, 212, 264, 316, 368, 420, 472), false},
		{"one-shot, nothing confirmed", Shock{Period: NonCyclic, Start: 30, Width: 10, Strength: make([]float64, 1)},
			30, nil, false},
		{"8 occurrences, nothing confirmed", cycle(5, 2, 1, 8), 2, nil, false},
		{"9 occurrences, nothing confirmed", cycle(5, 2, 1, 9), 2, nil, true},
		{"run at start-2 confirms", edge, 5, runsAt(25, 45, 103), false},
		{"run at start+width+1 confirms", edge, 5, runsAt(25, 45, 109), false},
		{"run at start-3 does not confirm", edge, 5, runsAt(25, 45, 102), true},
		{"run at start+width+2 does not confirm", edge, 5, runsAt(25, 45, 110), true},
		// Eleven occurrences: three of the ten others confirmed is too few,
		// and a run inside the seed's own window does not make it four.
		{"seed's own occurrence is not counted", cycle(20, 5, 3, 11), 5, runsAt(6, 25, 45, 65), true},
		{"seed's own occurrence left out of the share", cycle(20, 5, 3, 11), 5, runsAt(25, 45, 65, 85), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := unconfirmedCycle(&tc.s, tc.seedStart, tc.runs); got != tc.want {
				t.Errorf("unconfirmedCycle = %v, want %v", got, tc.want)
			}
		})
	}
}
