package server

import (
	"encoding/hex"
	"sync"

	"repro/internal/telemetry"
)

// The live-inspection ring: a bounded in-memory record of recent
// requests, queryable at /debug/requests and /debug/trace/{id}. Three
// views keep request records by value in slots allocated up front — the
// N most recent requests, the K slowest, and the K most recent errors —
// so a request that matters (slow, failed) outlives the recency churn of
// a busy server. A request is fetchable by ID as long as some view still
// holds a copy of its record: a lookup scans every held record (at most
// N+K+K, 352 by default) for the newest with that ID.

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

// requestRing holds the three bounded views. Construct with
// newRequestRing; methods are safe for concurrent use and nil-safe (a
// nil ring drops everything, so one pointer gates the inspection plane).
type requestRing struct {
	mu      sync.Mutex
	seq     uint64 // records added so far
	recent  fifo
	slowest []requestRecord // descending by duration, bounded by ringSlowest
	errored fifo
}

func newRequestRing(size int) *requestRing {
	if size <= 0 {
		return nil
	}
	return &requestRing{
		recent:  fifo{buf: make([]requestRecord, size)},
		slowest: make([]requestRecord, 0, ringSlowest),
		errored: fifo{buf: make([]requestRecord, ringErrored)},
	}
}

// fifo is a recency view: a circular buffer of records, so retaining one
// is O(1) however large the view.
type fifo struct {
	buf  []requestRecord
	n    int // slots filled: buf[:n] are the held records
	next int // the slot the next record overwrites: the oldest once full
}

func (f *fifo) push(rec *requestRecord) {
	f.buf[f.next] = *rec
	f.next = (f.next + 1) % len(f.buf)
	if f.n < len(f.buf) {
		f.n++
	}
}

// newestFirst appends the digests of the held records, newest first.
func (f *fifo) newestFirst(dst []RequestDigest) []RequestDigest {
	for k := 1; k <= f.n; k++ {
		dst = append(dst, f.buf[(f.next-k+len(f.buf))%len(f.buf)].digest())
	}
	return dst
}

// Add retains a copy of one finished request's record, numbering it. The
// slowest view orders by the record's duration.
func (r *requestRing) Add(rec *requestRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	rec.seq = r.seq
	r.recent.push(rec)
	if rec.errMsg != "" || rec.status >= 500 {
		r.errored.push(rec)
	}
	// Slowest view: insert after the records at least as slow, dropping
	// the fastest past the bound.
	i := len(r.slowest)
	for i > 0 && r.slowest[i-1].dur < rec.dur {
		i--
	}
	if i == ringSlowest {
		return
	}
	if len(r.slowest) < ringSlowest {
		r.slowest = append(r.slowest, requestRecord{})
	}
	copy(r.slowest[i+1:], r.slowest[i:])
	r.slowest[i] = *rec
}

// RingSnapshot is the JSON shape of /debug/requests.
type RingSnapshot struct {
	Recent  []RequestDigest `json:"recent"`  // newest first
	Slowest []RequestDigest `json:"slowest"` // slowest first
	Errored []RequestDigest `json:"errored"` // newest first
}

// Snapshot copies the three views as digests.
func (r *requestRing) Snapshot() RingSnapshot {
	snap := RingSnapshot{Recent: []RequestDigest{}, Slowest: []RequestDigest{}, Errored: []RequestDigest{}}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap.Recent = r.recent.newestFirst(snap.Recent)
	for i := range r.slowest {
		snap.Slowest = append(snap.Slowest, r.slowest[i].digest())
	}
	snap.Errored = r.errored.newestFirst(snap.Errored)
	return snap
}

// Trace returns the trace of the newest retained request with the given
// ID, built from its record.
func (r *requestRing) Trace(id string) (*telemetry.Trace, bool) {
	var want [16]byte
	if r == nil || len(id) != hex.EncodedLen(len(want)) {
		return nil, false
	}
	if _, err := hex.Decode(want[:], []byte(id)); err != nil {
		return nil, false
	}
	var found requestRecord
	r.mu.Lock()
	for _, view := range [][]requestRecord{r.recent.buf[:r.recent.n], r.slowest, r.errored.buf[:r.errored.n]} {
		for i := range view {
			if view[i].id == want && view[i].seq > found.seq {
				found = view[i]
			}
		}
	}
	r.mu.Unlock()
	if found.seq == 0 {
		return nil, false
	}
	return found.trace(), true
}
