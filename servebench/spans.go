package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
// Times are nanoseconds since the recorder's epoch.
type span struct {
	ID, Parent int32
	Op         int32 // operation index; -1 during set-up
	Name       string
	Start, End int64
}

func (s span) dur() int64 { return s.End - s.Start }

// rawSpan is a span as the recorder stores it: without pointers, so that
// it can live outside the Go heap. End is -1 while the span is open.
type rawSpan struct {
	ID, Parent, Op int32
	Name           uint16
	Start, End     int64
}

// maxSpans bounds the spans one replay records; later ones are dropped
// and counted.
const maxSpans = 1 << 23

// recorder keeps spans in memory until the run ends, outside the Go heap
// so that tracing adds little work for the collector. A nil recorder
// records nothing, which is how untraced runs stay free of it.
type recorder struct {
	epoch time.Time
	// op is the operation index stamped on new spans; fsParent is the span
	// that file-system calls nest under (0 = none). The benchmark sets both
	// around each call, and only one operation is ever in flight.
	op       atomic.Int32
	fsParent atomic.Int32

	mu      sync.Mutex
	names   []string
	index   map[string]uint16
	spans   []rawSpan
	release func()
	dropped int
}

func newRecorder() *recorder {
	spans, release := mapSlice[rawSpan](maxSpans)
	r := &recorder{epoch: time.Now(), index: map[string]uint16{}, spans: spans, release: release}
	r.op.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// nameID interns a span name (r.mu held).
func (r *recorder) nameID(name string) uint16 {
	id, ok := r.index[name]
	if !ok {
		id = uint16(len(r.names))
		r.names = append(r.names, name)
		r.index[name] = id
	}
	return id
}

// setOp stamps operation i on the spans that follow.
func (r *recorder) setOp(i int) {
	if r != nil {
		r.op.Store(int32(i))
	}
}

// setFSParent makes file-system calls nest under span id (0: none).
func (r *recorder) setFSParent(id int32) {
	if r != nil {
		r.fsParent.Store(id)
	}
}

func (r *recorder) fsParentID() int32 {
	if r == nil {
		return 0
	}
	return r.fsParent.Load()
}

// begin opens a span and returns its id (0 on a nil or full recorder).
func (r *recorder) begin(name string, parent int32) int32 {
	if r == nil {
		return 0
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return 0
	}
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, rawSpan{ID: id, Parent: parent, Op: r.op.Load(),
		Name: r.nameID(name), Start: start, End: -1})
	return id
}

// end closes span id, renaming it when name is not empty: an append is only
// known to be a refit once it returns.
func (r *recorder) end(id int32, name string) {
	if r == nil || id == 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = t
	if name != "" {
		s.Name = r.nameID(name)
	}
}

// snapshot returns the closed spans, on the heap, and how many spans the
// recorder had to drop.
func (r *recorder) snapshot() ([]span, int) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, span{ID: s.ID, Parent: s.Parent, Op: s.Op,
				Name: r.names[s.Name], Start: s.Start, End: s.End})
		}
	}
	return out, r.dropped
}

// free releases the span storage; the recorder records nothing after it.
func (r *recorder) free() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = nil
	r.release()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children are clipped to the parent
// and overlapping children count once.
func selfTimes(spans []span) map[int32]int64 {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int32]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's interval.
func covered(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanStats groups timed-phase spans (Op >= 0) by name, with total and
// self durations in nanoseconds.
type spanStats struct {
	dur, self map[string][]int64
}

func statsOf(spans []span) spanStats {
	self := selfTimes(spans)
	st := spanStats{dur: map[string][]int64{}, self: map[string][]int64{}}
	for _, s := range spans {
		if s.Op < 0 {
			continue
		}
		st.dur[s.Name] = append(st.dur[s.Name], s.dur())
		st.self[s.Name] = append(st.self[s.Name], self[s.ID])
	}
	return st
}

// writeSpans writes one line per span: replay, id, parent, op, name, start
// and end in nanoseconds since the replay's epoch.
func writeSpans(path string, replays map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "replay,id,parent,op,name,start_ns,end_ns")
	names := make([]string, 0, len(replays))
	for k := range replays {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		for _, s := range replays[k] {
			fmt.Fprintf(w, "%s,%d,%d,%d,%s,%d,%d\n", k, s.ID, s.Parent, s.Op, s.Name, s.Start, s.End)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
