package core

// ε(t), the temporal susceptible rate every simulation takes, is built here
// and nowhere else: ε(t) = 1 plus, shock by shock in order, the strength of
// each occurrence covering t. The fitters, the stream checkpoint and the
// Model reads all call epsilonInto, so the summation order the bit-identity
// tests rely on, and the projection of an occurrence no fit has seen, are
// each decided once.

// epsilonInto writes ε(t) for the absolute ticks [t0, t0+len(dst)) into dst
// and returns it: 1 plus, shock by shock in order, Strength[m] for each
// occurrence m of the shock that overlaps the window. With project set, an
// occurrence of a cyclic shock past the end of its strength row adds the
// shock's projected strength when that is positive: draws[k] for shock k
// when draws is non-nil (ForecastBands' per-trajectory resample),
// futureStrength of its row otherwise. Without project such an occurrence
// adds nothing.
//
// Every tick receives its additions in (shock, occurrence) order whatever
// the window, so rebuilding a window after a strength inside it changed is
// bit-identical to the same ticks of a full build (float addition is not
// associative, so the order matters). The work per shock starts at its
// first overlapping occurrence, so a one-tick window costs O(#shocks). It
// allocates nothing.
func epsilonInto(dst []float64, t0 int, shocks []Shock, project bool, draws []float64) []float64 {
	for t := range dst {
		dst[t] = 1
	}
	t1 := t0 + len(dst)
	for k := range shocks {
		s := &shocks[k]
		future := 0.0
		if project && s.Period > 0 && s.OccurrenceStart(len(s.Strength)) < t1 {
			if draws != nil {
				future = draws[k]
			} else {
				future = futureStrength(s.Strength)
			}
		}
		addShockEpsilon(dst, t0, s, future)
	}
	return dst
}

// addShockEpsilon is epsilonInto's step for one shock: it adds s's
// occurrences that overlap the absolute ticks [t0, t0+len(dst)) into dst,
// Strength[m] for an occurrence its row holds and, for a cyclic shock,
// future for each later one when future is positive. evaluateCandidate calls
// it directly to layer a candidate onto a cached base profile, which is a
// full build over the base shocks plus the candidate last.
func addShockEpsilon(dst []float64, t0 int, s *Shock, future float64) {
	if s.Width <= 0 {
		return
	}
	t1 := t0 + len(dst)
	m := 0 // the first occurrence ending after t0
	if d := t0 - s.Start - s.Width; s.Period > 0 && d >= 0 {
		m = d/s.Period + 1
	}
	for start := s.OccurrenceStart(m); start < t1; start += s.Period {
		v := future
		if m < len(s.Strength) {
			v = s.Strength[m]
		} else if s.Period <= 0 || future <= 0 {
			return
		}
		for t, hi := max(start, t0)-t0, min(start+s.Width, t1)-t0; t < hi; t++ {
			dst[t] += v
		}
		if s.Period <= 0 {
			return
		}
		m++
	}
}

// futureStrength is the strength projected for a cyclic shock's
// occurrences past the end of its strength row: the mean of the row's
// non-zero strengths. An event whose last two observed occurrences were
// both zero is treated as ended and does not recur (e.g., a film franchise
// after its finale) — one trailing zero alone is not conclusive, since the
// final cycle may simply have been cut off by the training window.
func futureStrength(row []float64) float64 {
	if k := len(row); k >= 2 && row[k-1] == 0 && row[k-2] == 0 {
		return 0
	}
	sum, cnt := 0.0, 0
	for _, v := range row {
		if v > 0 {
			sum += v
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// occurrenceSpan returns the ticks [lo, hi) that occurrence m of s
// influences in an n-tick window, over which the strength searches score
// it: from its start up to the next occurrence's start or, for a one-shot
// and the last occurrence in the window, up to a decay horizon of
// 4·Width + 16 ticks; clipped to n.
func occurrenceSpan(s *Shock, m, n int) (lo, hi int) {
	lo, hi = s.OccurrenceStart(m), n
	if s.Period > 0 && lo+s.Period < n {
		hi = lo + s.Period
	} else if lo+4*s.Width+16 < n {
		hi = lo + 4*s.Width + 16
	}
	return lo, hi
}

// keywordAt returns keyword i's shocks in model order, each carrying the
// strength row location j sees, with the parameters and growth-rate
// override (-1 for none) its simulation at j takes. A shock with a Local
// matrix reads column j of it, where a row too short to hold j reads 0; a
// shock without one keeps its global row. N and the rate come from LocalN
// and LocalR where they hold j, and are the keyword's own otherwise. The
// shocks are copies, but a global row is shared with the model.
func (m *Model) keywordAt(i, j int) (shocks []Shock, p KeywordParams, rate float64) {
	shocks, p, rate = m.ShocksFor(i), m.Global[i], -1
	for k := range shocks {
		s := &shocks[k]
		if s.Local == nil {
			continue
		}
		col := make([]float64, len(s.Strength))
		for occ := range col {
			if j < len(s.Local[occ]) {
				col[occ] = s.Local[occ][j]
			}
		}
		s.Strength = col
	}
	if m.LocalN != nil && j < len(m.LocalN[i]) {
		p.N = m.LocalN[i][j]
	}
	if m.LocalR != nil && j < len(m.LocalR[i]) {
		rate = m.LocalR[i][j]
	}
	return shocks, p, rate
}
