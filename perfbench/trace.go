package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records one span around every public call the benchmark
// makes into the program: name, start, end, the span that caused it and the
// request it belongs to. Spans stay in memory, one buffer per goroutine, and
// are written out when the run ends. End-to-end metrics are never taken from
// a traced run.

// maxSpans bounds the spans one run keeps (32 MiB of them). A traced phase
// ends before it would pass the bound (see alternateRounds); spans past it are
// counted as dropped, and a traced run that drops any fails.
const maxSpans = 1 << 19

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanSet owns the per-goroutine tracers of one run and their common clock.
type spanSet struct {
	epoch time.Time
	ids   atomic.Uint64
	kept  atomic.Int64

	mu      sync.Mutex
	tracers []*tracer
}

func newSpanSet() *spanSet { return &spanSet{epoch: time.Now()} }

// count returns the number of spans recorded or dropped so far.
func (s *spanSet) count() int64 {
	if s == nil {
		return 0
	}
	return s.kept.Load()
}

// room reports whether n more spans fit in the buffer; always on a nil set.
func (s *spanSet) room(n int64) bool { return s == nil || s.count()+n <= maxSpans }

// tracer returns *keep if it already records into s, or else a new span
// buffer for one goroutine, stored in *keep so that the goroutine's later
// traced rounds append to the same buffer, also when untraced rounds come
// between them. A nil spanSet gives a nil tracer, whose methods do
// nothing: untraced runs pay one nil check per call site.
func (s *spanSet) tracer(keep **tracer) *tracer {
	if s == nil {
		return nil
	}
	if *keep == nil || (*keep).set != s {
		*keep = &tracer{set: s}
		s.mu.Lock()
		s.tracers = append(s.tracers, *keep)
		s.mu.Unlock()
	}
	return *keep
}

// tracer is one goroutine's span buffer.
type tracer struct {
	set     *spanSet
	spans   []span
	dropped int
}

// id reserves a span id, so children can name a parent that has not ended.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.set.ids.Add(1)
}

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent, req uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if t.set.kept.Add(1) > maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.set.epoch).Nanoseconds(),
		End:   end.Sub(t.set.epoch).Nanoseconds(),
	})
}

// call times fn as one span and returns fn's error.
func (t *tracer) call(parent uint64, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	id := t.id()
	start := time.Now()
	err := fn()
	t.add(id, parent, 0, name, start, time.Now())
	return err
}

// all returns every recorded span and the number dropped.
func (s *spanSet) all() ([]span, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []span
	dropped := 0
	for _, t := range s.tracers {
		out = append(out, t.spans...)
		dropped += t.dropped
	}
	return out, dropped
}

// selfTime is a span's duration minus the part of it its children cover:
// overlapping children count once, and only inside the parent's interval.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return int(a.lo - b.lo) })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		lo := max(v.lo, end)
		if v.hi > lo {
			covered += v.hi - lo
			end = v.hi
		}
	}
	return parent.End - parent.Start - covered
}

// spanTotals is one span name's count, total and self time.
type spanTotals struct {
	Name        string
	Count       int
	Total, Self int64
}

// totalsByName sums each span name's time and self time.
func totalsByName(spans []span) []spanTotals {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	by := make(map[string]*spanTotals)
	for _, s := range spans {
		t := by[s.Name]
		if t == nil {
			t = &spanTotals{Name: s.Name}
			by[s.Name] = t
		}
		t.Count++
		t.Total += s.End - s.Start
		t.Self += selfTime(s, kids[s.ID])
	}
	out := make([]spanTotals, 0, len(by))
	for _, t := range by {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// printTotals writes the per-name span table.
func printTotals(w io.Writer, totals []spanTotals) {
	fmt.Fprintf(w, "%-28s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, t := range totals {
		fmt.Fprintf(w, "%-28s %9d %12.3f %12.3f\n", t.Name, t.Count, float64(t.Total)/1e6, float64(t.Self)/1e6)
	}
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
