package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Spans of one query share Trace; Parent is the index of the
// enclosing span in the recorder, -1 for a root.
type span struct {
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced passes run the same code.
// The clients of serve-mixed record into one recorder concurrently.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(trace int, name string, parent int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Trace: trace, Name: name, Parent: parent, StartNs: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].EndNs = int64(time.Since(r.t0))
}

// spanTotal is the per-name roll-up of a recorder: how often the span
// occurred, its summed duration, and its summed self time.
type spanTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// totals computes each span's self time — its duration minus the part of
// its interval that its direct children cover — and sums by name.
func (r *recorder) totals() []spanTotal {
	if r == nil {
		return nil
	}
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := make(map[string]*spanTotal)
	for i, s := range r.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].StartNs < r.spans[kids[b]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(r.spans[k].StartNs, edge), min(r.spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		t := byName[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			byName[s.Name] = t
		}
		t.Count++
		t.TotalMs += float64(s.EndNs-s.StartNs) / 1e6
		t.SelfMs += float64(s.EndNs-s.StartNs-covered) / 1e6
	}
	out := make([]spanTotal, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

func (r *recorder) writeFile(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
