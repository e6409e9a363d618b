package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval the benchmark recorded around a call into
// the program: a layer boundary. Parent is the enclosing span's ID (0
// for a root), so self time can be derived from the tree.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	// StartNS and EndNS are nanoseconds since the recorder's origin.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// Dur is the span's wall-clock length.
func (s Span) Dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// Spans keeps spans in memory until the run ends; nothing is written
// while the workload is timed. A nil *Spans records nothing, so the
// untraced path calls the same code with tracing off.
type Spans struct {
	origin time.Time
	mu     sync.Mutex
	next   int64
	spans  []Span
}

func newSpans() *Spans { return &Spans{origin: time.Now()} }

// Open is a started span; End closes it.
type Open struct {
	rec    *Spans
	id     int64
	parent int64
	name   string
	start  time.Time
}

// Start opens a span under parent (0 = root).
func (r *Spans) Start(name string, parent int64) Open {
	if r == nil {
		return Open{}
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return Open{rec: r, id: id, parent: parent, name: name, start: time.Now()}
}

// ID is the span's identifier, for use as a child's parent.
func (o Open) ID() int64 { return o.id }

// End closes the span and records it.
func (o Open) End() {
	if o.rec == nil {
		return
	}
	o.rec.Add(o.name, o.id, o.parent, o.start, time.Now())
}

// Add records a span whose endpoints were timed elsewhere, such as the
// poll phases seen on a wrapped connection. id 0 allocates a fresh ID.
func (r *Spans) Add(name string, id, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == 0 {
		r.next++
		id = r.next
	}
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(r.origin).Nanoseconds(),
		EndNS:   end.Sub(r.origin).Nanoseconds(),
	})
	return id
}

// All returns a copy of the recorded spans.
func (r *Spans) All() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteSpans writes the span file: one JSON object per line, in the
// Span field layout ({"id","parent","name","start_ns","end_ns"}).
func WriteSpans(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeSpanFile writes spans to path once, at the end of a traced run.
func writeSpanFile(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSpans(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// SelfTime is one span name's totals: wall time, self time (wall time
// not covered by any child span), and the number of spans.
type SelfTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval its direct children cover. Overlapping children (a
// parent fanning out to concurrent calls) count once: the covered part
// is the union of the children's intervals clipped to the parent.
// Results are ordered by self time, largest first.
func selfTimes(spans []Span) []SelfTime {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*SelfTime)
	var order []string
	for _, s := range spans {
		st, ok := byName[s.Name]
		if !ok {
			st = &SelfTime{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		st.Count++
		st.Total += s.Dur()
		st.Self += s.Dur() - covered(s, children[s.ID])
	}
	out := make([]SelfTime, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of kids' intervals within p.
func covered(p Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, p.StartNS), min(k.EndNS, p.EndNS)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	var curLo, curHi int64 = -1, -1
	for _, x := range iv {
		if curHi < 0 || x[0] > curHi {
			if curHi >= 0 {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	if curHi >= 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}
