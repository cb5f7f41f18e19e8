package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans stay in memory and are
// written out when the run ends.
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans. A nil *tracer records nothing, which is how the
// untraced run calls the same job code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, job, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, job, parent int, fn func()) {
	i := t.begin(name, job, parent)
	fn()
	t.end(i)
}

// layerStats folds the spans into per-name totals and counts, and the
// part of each "job" span not covered by its direct children: the
// tracing overhead.
type layerStats struct {
	total map[string]time.Duration
	count map[string]int
	// remainder sums job-span time not covered by direct children.
	remainder time.Duration
	jobs      int
}

func (t *tracer) stats() layerStats {
	ls := layerStats{total: map[string]time.Duration{}, count: map[string]int{}}
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		ls.total[s.Name] += time.Duration(s.End - s.Start)
		ls.count[s.Name]++
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if s.Name == "job" {
			ls.jobs++
			ls.remainder += time.Duration(s.End - s.Start - covered[i])
		}
	}
	return ls
}

// meanSeconds is the mean duration of the spans named name, 0 if none.
func (ls layerStats) meanSeconds(name string) float64 {
	if ls.count[name] == 0 {
		return 0
	}
	return ls.total[name].Seconds() / float64(ls.count[name])
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
