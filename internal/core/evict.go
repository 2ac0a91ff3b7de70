package core

// Bounded stream memory: without a retention horizon a long-lived stream's
// sequence grows without bound, and so does the cost of every full refit
// over it. SetRetention puts the stream under a sliding window — the oldest
// ticks are evicted in amortised chunks and every tick-indexed piece of fit
// state (shock starts, growth onset, scan positions, the incremental
// simulation rings) is rebased onto the retained suffix. After an eviction
// the stream behaves exactly as if it had been created from the retained
// window: the simulation restarts from i0 at the window head and the next
// consolidating refit re-judges the carried structure against the window it
// can actually see. The absolute tick index keeps counting across
// evictions (Head = EvictedTicks + Len), so positioned appends and
// duplicate detection stay correct forever.
//
// This file owns every growth path of s.seq — appendTick (a fitted stream,
// one tick at a time) and appendBulk (before the first fit) are the only
// places allowed to call append(s.seq, ...), so no code path can grow the
// sequence behind the retention horizon's back. CI greps for stray
// append sites outside this file.

// minRetention is the smallest accepted retention horizon: below it there
// is not enough context to fit at all (the fitters need 8 observed ticks
// and the tail scanner 16 of context), so tighter bounds are clamped up.
const minRetention = 32

// SetRetention bounds the stream to the newest n ticks (0 disables the
// bound; values in (0, minRetention) clamp up). Eviction is chunked —
// amortised over ~n/8 appends — so the live length stays within n plus one
// chunk. Shrinking the horizon takes effect on the next append.
func (s *Stream) SetRetention(n int) {
	if n <= 0 {
		s.retention = 0
		return
	}
	if n < minRetention {
		n = minRetention
	}
	s.retention = n
}

// Retention returns the configured horizon (0 = unbounded).
func (s *Stream) Retention() int { return s.retention }

// EvictedTicks returns how many ticks have been evicted off the front so
// far; Head() = EvictedTicks() + Len() is the absolute index of the next
// tick to append.
func (s *Stream) EvictedTicks() int64 { return s.evicted }

// Head returns the absolute tick index the next head-append lands on.
// Unlike Len it never decreases, eviction or not.
func (s *Stream) Head() int64 { return s.evicted + int64(len(s.seq)) }

// appendTick and appendBulk are the only sequence growth paths (see the
// file comment).
func (s *Stream) appendTick(v float64)        { s.seq = append(s.seq, v) }
func (s *Stream) appendBulk(values []float64) { s.seq = append(s.seq, values...) }

// maybeEvict enforces the retention horizon, returning how many ticks it
// evicted. Chunked: it waits for retention/8 ticks of overshoot so the
// O(retention) rebase cost is amortised to O(1) per append.
func (s *Stream) maybeEvict() int {
	r := s.retention
	if r <= 0 {
		return 0
	}
	chunk := r / 8
	if chunk < 1 {
		chunk = 1
	}
	if len(s.seq) < r+chunk {
		return 0
	}
	k := len(s.seq) - r
	s.evictFront(k)
	return k
}

// evictFront drops the oldest k ticks and rebases the fit state onto the
// retained suffix.
func (s *Stream) evictFront(k int) {
	if k <= 0 {
		return
	}
	if k >= len(s.seq) {
		k = len(s.seq)
	}
	// Copy into a fresh backing array: re-slicing would keep the evicted
	// prefix reachable and make the memory bound nominal only.
	rest := make([]float64, len(s.seq)-k)
	copy(rest, s.seq[k:])
	s.seq = rest
	s.evicted += int64(k)

	if s.lastScan >= 0 {
		s.lastScan -= k
		if s.lastScan < 0 {
			s.lastScan = -1 // the examined peak slid out of the window
		}
	}
	if s.inc != nil {
		s.rebaseResult(k)
		// The simulation rings index ticks absolutely; rebuild them on the
		// shifted sequence exactly the way RestoreStream would, so a snapshot
		// taken after an eviction restores bit-identically to the live stream.
		s.inc = newIncState(s.seq, &s.result, s.inc.future, s.cfg.TailWindow)
	}
}

// rebaseResult shifts every tick-indexed fit quantity k ticks left:
// shocks are rebased (dropping ones that slid out entirely, and their
// projected-strength entries with them) and the growth onset clamps to the
// window head once the growth phase is already active. newIncState keeps
// inc.future at least one entry per shock, so future[i] always exists.
func (s *Stream) rebaseResult(k int) {
	future := s.inc.future
	kept := make([]Shock, 0, len(s.result.Shocks))
	keptFuture := make([]float64, 0, len(s.result.Shocks))
	for i := range s.result.Shocks {
		sh := s.result.Shocks[i]
		if !rebaseShock(&sh, k, len(s.seq)) {
			continue
		}
		kept = append(kept, sh)
		keptFuture = append(keptFuture, future[i])
	}
	s.result.Shocks = kept
	s.inc.future = keptFuture
	p := &s.result.Params
	if p.TEta != NoGrowth {
		p.TEta -= k
		if p.TEta < 0 {
			p.TEta = 0 // growth already active over the whole retained window
		}
	}
}

// rebaseShock shifts one shock k ticks left, reporting whether it still
// matters inside the retained window of n ticks.
//
// A one-shot whose window slid out entirely is dropped; one straddling the
// boundary is clipped to its retained part (same strength over the same
// retained ticks, so ε(t) is unchanged where it is still computed). A
// cyclic shock advances whole periods until its Start is back inside the
// window, dropping the strength of each evicted occurrence; an occurrence
// straddling the boundary loses its head ticks (a ≤Width-1-tick ε
// discrepancy at the very window edge — ancient ticks one chunk away from
// eviction themselves, re-judged at the next consolidating refit). A
// cyclic whose next occurrence lands past the window head cannot satisfy
// the Start∈[0,n) model invariant and is dropped with its history.
func rebaseShock(sh *Shock, k, n int) bool {
	sh.Start -= k
	if sh.Period <= 0 {
		if sh.Start+sh.Width <= 0 {
			return false
		}
		if sh.Start < 0 {
			sh.Width += sh.Start
			sh.Start = 0
		}
		return sh.Width >= 1
	}
	for sh.Start < 0 {
		sh.Start += sh.Period
		if len(sh.Strength) > 0 {
			sh.Strength = sh.Strength[1:]
			if len(sh.Local) > 0 {
				sh.Local = sh.Local[1:]
			}
		}
	}
	return sh.Start < n
}
