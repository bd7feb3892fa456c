package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// ID; Parent is the index of the enclosing span (-1 for a root).
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) start(name string, id int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, StartNS: now})
	return len(t.spans) - 1
}

// end closes the span opened as i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[i].EndNS = now
	t.mu.Unlock()
}

// spanStats summarizes every span of one name.
type spanStats struct {
	Count int `json:"count"`
	// TotalMS is the summed duration; SelfMS subtracts the part of each
	// span's interval that its child spans cover.
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	// MedianMS is the median single-span duration.
	MedianMS float64 `json:"median_ms"`
}

// summarize computes per-name totals, self time and medians.
func (t *tracer) summarize() map[string]spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	durs := make(map[string][]float64)
	out := make(map[string]spanStats)
	for i, s := range t.spans {
		d := float64(s.EndNS-s.StartNS) / 1e6
		self := float64(covered(s, t.spans, children[i])) / 1e6
		st := out[s.Name]
		st.Count++
		st.TotalMS += d
		st.SelfMS += d - self
		out[s.Name] = st
		durs[s.Name] = append(durs[s.Name], d)
	}
	for name, ds := range durs {
		st := out[name]
		st.MedianMS = median(ds)
		out[name] = st
	}
	return out
}

// covered returns how many nanoseconds of parent's interval its children
// cover, counting overlapping children once.
func covered(parent span, all []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(all[k].StartNS, parent.StartNS), min(all[k].EndNS, parent.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, reach int64
	for _, v := range ivs {
		if v.a < reach {
			v.a = reach
		}
		if v.b > v.a {
			total += v.b - v.a
			reach = v.b
		}
	}
	return total
}

// write stores every span and the per-name summary as one JSON document.
func (t *tracer) write(path string) error {
	summary := t.summarize()
	t.mu.Lock()
	doc := struct {
		Summary map[string]spanStats `json:"summary"`
		Spans   []span               `json:"spans"`
	}{summary, t.spans}
	raw, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
