package server

import (
	"sync"

	"repro/internal/telemetry"
)

// The live-inspection ring: a bounded in-memory record of recent request
// digests with their full traces, queryable at /debug/requests and
// /debug/trace/{id}. Three views share the entries — the N most recent
// requests, the K slowest, and the K most recent errors — so a digest
// that matters (slow, failed) outlives the recency churn of a busy
// server. Entries are reference-counted across the views; a trace is
// fetchable by ID exactly as long as at least one view still holds it.

// Bounds of the slowest/errored side views.
const (
	ringSlowest = 32
	ringErrored = 64
)

// StageTiming is one serving stage's wall-clock cost inside a digest.
type StageTiming struct {
	Name  string  `json:"name"`
	DurUS float64 `json:"dur_us"`
}

// RequestDigest is the compact, JSON-stable summary of one served
// request. Field names are pinned by a golden test — they are the
// debugging API surface.
type RequestDigest struct {
	ID         string        `json:"id"`
	Endpoint   string        `json:"endpoint"`
	Status     int           `json:"status"`
	Source     string        `json:"source,omitempty"` // cache | surrogate | coalesced | compute | error
	DurationUS float64       `json:"duration_us"`
	EnergyJ    float64       `json:"energy_j,omitempty"` // modelled job energy, when a model ran
	Error      string        `json:"error,omitempty"`
	Stages     []StageTiming `json:"stages,omitempty"`
}

// ringEntry is one retained request: its digest's scalar fields, its full
// trace and the ID of the trace's root span, reference-counted across the
// views that hold it. The digest's stages are derived from the trace when
// a snapshot reads them, so serving a request never builds them.
type ringEntry struct {
	digest RequestDigest // Stages unset: see stages
	trace  *telemetry.Trace
	root   uint64
	refs   int
}

// stages lists the wall-clock spans directly under the root, in the
// trace's order (see telemetry.Trace.Spans).
func (e *ringEntry) stages() []StageTiming {
	if e.root == 0 {
		return nil
	}
	var out []StageTiming
	for _, span := range e.trace.Spans() {
		if span.Track == "" && span.Parent == e.root {
			out = append(out, StageTiming{Name: span.Name, DurUS: span.DurUS})
		}
	}
	return out
}

// view returns the entry's full digest.
func (e *ringEntry) view() RequestDigest {
	d := e.digest
	d.Stages = e.stages()
	return d
}

// requestRing holds the three bounded views. Construct with
// newRequestRing; methods are safe for concurrent use and nil-safe (a
// nil ring drops everything, so one pointer gates the inspection plane).
type requestRing struct {
	mu      sync.Mutex
	byID    map[string]*ringEntry
	recent  fifo         // bounded by size
	slowest []*ringEntry // descending by duration, bounded by ringSlowest
	errored fifo         // bounded by ringErrored
}

func newRequestRing(size int) *requestRing {
	if size <= 0 {
		return nil
	}
	return &requestRing{
		byID:    make(map[string]*ringEntry),
		recent:  fifo{bound: size},
		errored: fifo{bound: ringErrored},
	}
}

// fifo is a recency view: a circular buffer of at most bound entries, so
// retaining one is O(1) however large the view.
type fifo struct {
	buf   []*ringEntry
	next  int // once full, the slot of the oldest entry: the next to go
	bound int
}

// push retains e and returns the entry it evicted, if any.
func (f *fifo) push(e *ringEntry) (evicted *ringEntry) {
	if len(f.buf) < f.bound {
		f.buf = append(f.buf, e)
		return nil
	}
	evicted, f.buf[f.next] = f.buf[f.next], e
	f.next = (f.next + 1) % f.bound
	return evicted
}

// newestFirst appends the views of the entries, newest first.
func (f *fifo) newestFirst(dst []RequestDigest) []RequestDigest {
	for k := len(f.buf) - 1; k >= 0; k-- {
		dst = append(dst, f.buf[(f.next+k)%len(f.buf)].view())
	}
	return dst
}

// Add retains one finished request: the digest's scalar fields (its
// Stages are ignored), its trace and the ID of the trace's root span,
// under which the stages are found on read (0: the digest has none). The
// slowest view orders by digest.DurationUS.
func (r *requestRing) Add(digest RequestDigest, trace *telemetry.Trace, root uint64) {
	if r == nil || digest.ID == "" {
		return
	}
	digest.Stages = nil
	e := &ringEntry{digest: digest, trace: trace, root: root}
	r.mu.Lock()
	defer r.mu.Unlock()
	// A replayed trace ID (client reused a traceparent) would alias the
	// byID map; keep the newest.
	if old, ok := r.byID[digest.ID]; ok {
		old.digest.ID = "" // orphaned: unfindable, dropped as views churn
	}
	r.byID[digest.ID] = e

	r.retain(e, &r.recent)
	if digest.Error != "" || digest.Status >= 500 {
		r.retain(e, &r.errored)
	}
	// Slowest view: insert in descending duration order, evict the tail.
	i := len(r.slowest)
	for i > 0 && r.slowest[i-1].digest.DurationUS < digest.DurationUS {
		i--
	}
	if i < ringSlowest {
		e.refs++
		r.slowest = append(r.slowest, nil)
		copy(r.slowest[i+1:], r.slowest[i:])
		r.slowest[i] = e
		if len(r.slowest) > ringSlowest {
			r.release(r.slowest[len(r.slowest)-1])
			r.slowest = r.slowest[:len(r.slowest)-1]
		}
	}
}

// retain adds e to a recency view, evicting the oldest past its bound.
func (r *requestRing) retain(e *ringEntry, view *fifo) {
	e.refs++
	if old := view.push(e); old != nil {
		r.release(old)
	}
}

// release drops one reference; the last reference removes the entry from
// the ID index.
func (r *requestRing) release(e *ringEntry) {
	e.refs--
	if e.refs <= 0 && e.digest.ID != "" && r.byID[e.digest.ID] == e {
		delete(r.byID, e.digest.ID)
	}
}

// RingSnapshot is the JSON shape of /debug/requests.
type RingSnapshot struct {
	Recent  []RequestDigest `json:"recent"`  // newest first
	Slowest []RequestDigest `json:"slowest"` // slowest first
	Errored []RequestDigest `json:"errored"` // newest first
}

// Snapshot copies the three views, deriving each digest's stages.
func (r *requestRing) Snapshot() RingSnapshot {
	snap := RingSnapshot{Recent: []RequestDigest{}, Slowest: []RequestDigest{}, Errored: []RequestDigest{}}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap.Recent = r.recent.newestFirst(snap.Recent)
	for _, e := range r.slowest {
		snap.Slowest = append(snap.Slowest, e.view())
	}
	snap.Errored = r.errored.newestFirst(snap.Errored)
	return snap
}

// Trace returns the retained trace for a request ID still in some view.
func (r *requestRing) Trace(id string) (*telemetry.Trace, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byID[id]
	if !ok || e.trace == nil {
		return nil, false
	}
	return e.trace, true
}

// Len returns the number of distinct retained requests.
func (r *requestRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}
