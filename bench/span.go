package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are offsets from
// the tracer's epoch; parent is the index of the enclosing span (-1 for
// an op's root) and op the op that caused it, so the spans of one op
// share an identifier.
type span struct {
	name       string
	op, parent int
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer is the harness's in-memory span recorder. A nil tracer records
// nothing, which is how the untraced run pays nothing for it.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: time.Since(t.epoch)})
	t.mu.Unlock()
	return id
}

// finish closes the span begin returned.
func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// durationsMS returns the durations of every span called name, in ms.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.dur().Seconds()*1e3)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, edge := time.Duration(0), s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < edge {
				lo = edge
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// selfByName sums self time per span name, in ms.
func selfByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, d := range selfTimes(spans) {
		out[spans[i].name] += d.Seconds() * 1e3
	}
	return out
}

// writeJSON writes the spans as a JSON array of
// {name, op, id, parent, start_us, end_us} objects.
func (t *tracer) writeJSON(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("[")
	for i, s := range t.spans {
		if i > 0 {
			w.WriteString(",")
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"op\":%d,\"id\":%d,\"parent\":%d,\"start_us\":%.3f,\"end_us\":%.3f}",
			s.name, s.op, i, s.parent, float64(s.start)/1e3, float64(s.end)/1e3)
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
