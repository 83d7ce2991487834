package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Parent 0 marks a root; ids start at 1.
type span struct {
	ID     int32         `json:"id"`
	Parent int32         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (0: a root) and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans) + 1), Parent: parent, Name: name, Start: now, End: -1})
	return int32(len(t.spans))
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return now - t.spans[id-1].Start
}

// record adds a finished span measured by the caller.
func (t *tracer) record(name string, parent int32, start time.Time, d time.Duration) {
	s := start.Sub(t.origin)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans) + 1), Parent: parent, Name: name, Start: s, End: s + d})
	t.mu.Unlock()
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover (children of one parent may overlap when they ran
// on different goroutines, so their union is subtracted).
func (t *tracer) selfTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		self[i] = s.End - s.Start - covered
	}
	return self
}

// residue is the share of the root spans' total time, over the roots
// with the given name, that no child span accounts for: the sum of their
// self times over the sum of their durations.
func (t *tracer) residue(root string) float64 {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	var un, total time.Duration
	for i, s := range t.spans {
		if s.Parent == 0 && s.Name == root {
			un += self[i]
			total += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return float64(un) / float64(total)
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// medianUS returns the median of ds in microseconds (0 when empty).
func medianUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	return quantile(sortDurations(ds), 0.5) * 1e3
}
