package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of that layer. Spans of one op share Op; Parent is the
// ID of the enclosing span (0 for the op's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced pass runs the same code with tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, op, parent int, f func()) {
	id := t.begin(name, op, parent)
	f()
	t.end(id)
}

// selfTimes splits the wall time of every op among its spans: each instant
// goes to the deepest spans open at that instant (split evenly if several
// names are open at the same depth, as when parallel workers run different
// calls). A span's self time is therefore its duration minus the part its
// children cover, and the self times of one op sum to its root's duration.
// It returns seconds per span name, the set of root names, and the summed
// root durations in seconds.
func (t *tracer) selfTimes() (self map[string]float64, roots map[string]bool, rootS float64) {
	self, roots = map[string]float64{}, map[string]bool{}
	depth := make([]int, len(t.spans)+1)
	byOp := map[int][]*span{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent == 0 {
			roots[s.Name] = true
			rootS += float64(s.End-s.Start) / 1e9
		} else {
			depth[s.ID] = depth[s.Parent] + 1
		}
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	type event struct {
		at   int64
		id   int
		open bool
	}
	for _, spans := range byOp {
		evs := make([]event, 0, 2*len(spans))
		for _, s := range spans {
			evs = append(evs, event{s.Start, s.ID, true}, event{s.End, s.ID, false})
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
		open := map[int]bool{}
		for i, ev := range evs {
			if i > 0 && ev.at > evs[i-1].at && len(open) > 0 {
				names := deepest(open, depth, t.spans)
				share := float64(ev.at-evs[i-1].at) / 1e9 / float64(len(names))
				for _, n := range names {
					self[n] += share
				}
			}
			if ev.open {
				open[ev.id] = true
			} else {
				delete(open, ev.id)
			}
		}
	}
	return self, roots, rootS
}

// deepest returns the distinct names of the deepest open spans.
func deepest(open map[int]bool, depth []int, spans []span) []string {
	best := -1
	var names []string
	for id := range open {
		switch d := depth[id]; {
		case d > best:
			best, names = d, names[:0]
			names = append(names, spans[id-1].Name)
		case d == best:
			names = append(names, spans[id-1].Name)
		}
	}
	sort.Strings(names)
	out := names[:0]
	for i, n := range names {
		if i == 0 || n != names[i-1] {
			out = append(out, n)
		}
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
