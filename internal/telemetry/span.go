package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Request-scoped tracing. Where the mpi tracer records a solver's
// *virtual-time* schedule, this file records the *wall-clock* life of one
// serving-layer request: a Trace is a bounded bag of spans assembled
// under a W3C-style trace ID, cheap enough to build on every request and
// exportable in the same Perfetto/Chrome format the engine traces use —
// so "why was this request slow" and "what did the modelled solver cost"
// are answered by one artifact.
//
// Concurrency: spans may be started, annotated and ended from any
// goroutine; the trace serialises appends under one mutex (requests
// record ~10 spans, so contention is nil). A nil *Trace and a nil *Span
// are inert, mirroring the registry instruments: one pointer gates the
// whole tracing plane.

// Attr is one span attribute (insertion-ordered key/value).
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SpanRecord is one finished span of a trace. Wall-clock spans live on
// the request track (Track == ""); model-time spans (virtual solver
// seconds) live on named tracks so the two time bases never share an
// axis. Times are microseconds from the trace anchor.
type SpanRecord struct {
	ID      uint64  `json:"id"`
	Parent  uint64  `json:"parent"` // 0 = root
	Name    string  `json:"name"`
	Track   string  `json:"track,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Attrs   []Attr  `json:"attrs,omitempty"`
}

// Trace is one request's span collection, identified by a 32-hex-digit
// W3C trace ID. Construct with NewTrace; methods are safe for concurrent
// use and nil-safe.
type Trace struct {
	id     string
	anchor time.Time
	now    func() time.Time

	mu     sync.Mutex
	nextID uint64
	spans  []SpanRecord
	// first backs spans for a request's usual span count, so recording
	// them costs no allocation beyond the trace's own.
	first [requestSpans]SpanRecord
}

// requestSpans is about how many spans one served request records: the
// root, up to seven stages and the modelled solver's virtual spans.
const requestSpans = 10

// NewTrace returns an empty trace anchored at the current wall clock. An
// empty id draws a fresh random trace ID.
func NewTrace(id string) *Trace {
	if id == "" {
		id = NewTraceID()
	}
	t := &Trace{id: id, now: time.Now}
	t.spans = t.first[:0]
	t.anchor = t.now()
	return t
}

// NewTraceID returns a random 16-byte trace ID in lowercase hex — the
// trace-id field of a W3C traceparent header.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; keep the trace
		// usable anyway with a constant sentinel ID.
		return "00000000000000000000000000000001"
	}
	var id [32]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// ID returns the trace ID ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Span is an open wall-clock span. End it exactly once; SetAttr calls
// must happen before End. A span belongs to the goroutine that started
// it (the trace itself is what's shared).
type Span struct {
	tr     *Trace
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  []Attr
	// first backs attrs for the few a span usually carries (a request's
	// root carries four), so SetAttr does not grow a slice per span.
	first [4]Attr
}

// StartSpan opens a named wall-clock span, optionally under a parent.
func (t *Trace) StartSpan(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	var pid uint64
	if parent != nil {
		pid = parent.id
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	s := &Span{tr: t, id: id, parent: pid, name: name, start: t.now()}
	s.attrs = s.first[:0]
	return s
}

// ID returns the span's trace-local ID (0 for nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetAttr attaches a key/value attribute to the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End closes the span, appends its record to the trace and returns the
// duration it recorded, in microseconds (0 for a nil span).
func (s *Span) End() (durUS float64) {
	if s == nil || s.tr == nil {
		return 0
	}
	end := s.tr.now()
	rec := SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartUS: float64(s.start.Sub(s.tr.anchor)) / float64(time.Microsecond),
		DurUS:   float64(end.Sub(s.start)) / float64(time.Microsecond),
		Attrs:   s.attrs,
	}
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, rec)
	s.tr.mu.Unlock()
	return rec.DurUS
}

// AddVirtualSpan appends a finished model-time span on a named track
// (virtual solver seconds, not wall time), parented under parent (0 =
// root). It returns the new span's ID so virtual spans can nest.
func (t *Trace) AddVirtualSpan(track, name string, parent uint64, startS, endS float64, attrs ...Attr) uint64 {
	if t == nil || track == "" {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, SpanRecord{
		ID:      t.nextID,
		Parent:  parent,
		Name:    name,
		Track:   track,
		StartUS: startS * 1e6,
		DurUS:   (endS - startS) * 1e6,
		Attrs:   attrs,
	})
	return t.nextID
}

// Spans returns the recorded spans sorted by (track, start, -end): the
// wall-clock request track first, then the virtual tracks, each with
// wrappers before the primitives they contain.
func (t *Trace) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Track != out[j].Track {
			return out[i].Track < out[j].Track
		}
		if out[i].StartUS != out[j].StartUS {
			return out[i].StartUS < out[j].StartUS
		}
		return out[i].DurUS > out[j].DurUS
	})
	return out
}

// --- W3C traceparent ---

// Traceparent renders the header advertising this trace: version 00, the
// trace ID, the root span as parent-id, sampled flag set.
func (t *Trace) Traceparent() string {
	if t == nil {
		return ""
	}
	return "00-" + t.id + "-0000000000000001-01"
}

// ParseTraceparent extracts the trace ID from a W3C traceparent header
// (version-traceid-parentid-flags: 2, 32, 16 and 2 hex digits). It
// returns ok=false for anything malformed — a field of the wrong length
// or not hex, the invalid version ff, an all-zero trace-id or parent-id —
// letting callers fall back to a generated ID. The trace-id is returned
// in lowercase.
func ParseTraceparent(h string) (traceID string, ok bool) {
	h = strings.TrimSpace(h)
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", false
	}
	version, id, parent, flags := h[:2], h[3:35], h[36:52], h[53:]
	if !isHex(version) || !isHex(id) || !isHex(parent) || !isHex(flags) {
		return "", false
	}
	if strings.EqualFold(version, "ff") || allZero(id) || allZero(parent) {
		return "", false
	}
	return strings.ToLower(id), true
}

// isHex reports whether s is all hex digits, either case.
func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// allZero reports whether s is all '0' digits.
func allZero(s string) bool {
	return strings.Trim(s, "0") == ""
}

// --- Perfetto export ---

// ChromeEvent is one entry of the Chrome/Perfetto trace-event format,
// the one event type of both trace writers: request traces here and the
// engine's rank timelines (mpi.World.WriteChromeTrace).
type ChromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeEvents encodes events as a trace-event JSON object:
// Perfetto and chrome://tracing both require the {"traceEvents": [...]}
// envelope for object-format traces.
func WriteChromeEvents(out io.Writer, events []ChromeEvent) error {
	return json.NewEncoder(out).Encode(struct {
		TraceEvents     []ChromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}

// Pids of the two processes a request trace renders as.
const (
	pidServing = 0 // wall-clock serving stages
	pidModel   = 1 // virtual-time modelled solver cost
)

// WriteChromeTrace emits the trace in the Chrome/Perfetto trace-event
// JSON format (the same {"traceEvents":[...]} envelope the engine's
// mpi.WriteChromeTrace uses, parseable by mpi.ReadChromeTrace): the
// serving stages as one wall-clock process, each virtual track as a
// named thread of a "modelled solver" process. Span and parent IDs ride
// in args so the hierarchy survives the export.
func (t *Trace) WriteChromeTrace(out io.Writer) error {
	if t == nil {
		return fmt.Errorf("telemetry: nil trace")
	}
	spans := t.Spans()
	events := make([]ChromeEvent, 0, len(spans)+8)
	events = append(events,
		ChromeEvent{Name: "process_name", Ph: "M", Pid: pidServing,
			Args: map[string]any{"name": "serving " + t.id}},
		ChromeEvent{Name: "process_sort_index", Ph: "M", Pid: pidServing,
			Args: map[string]any{"sort_index": pidServing}},
		ChromeEvent{Name: "thread_name", Ph: "M", Pid: pidServing, Tid: 0,
			Args: map[string]any{"name": "request"}},
	)
	// Stable thread IDs for the virtual tracks, in first-sorted order.
	trackTid := map[string]int{}
	for _, s := range spans {
		if s.Track == "" {
			continue
		}
		if _, ok := trackTid[s.Track]; !ok {
			tid := len(trackTid)
			trackTid[s.Track] = tid
			events = append(events,
				ChromeEvent{Name: "thread_name", Ph: "M", Pid: pidModel, Tid: tid,
					Args: map[string]any{"name": s.Track}},
			)
		}
	}
	// Sort tracks by name in the viewer regardless of first-span order
	// (fleet timelines name tracks node-0000, node-0001, ... — without
	// this they render in scheduling order, not node order).
	if len(trackTid) > 0 {
		names := make([]string, 0, len(trackTid))
		for name := range trackTid {
			names = append(names, name)
		}
		sort.Strings(names)
		for i, name := range names {
			events = append(events,
				ChromeEvent{Name: "thread_sort_index", Ph: "M", Pid: pidModel, Tid: trackTid[name],
					Args: map[string]any{"sort_index": i}},
			)
		}
	}
	if len(trackTid) > 0 {
		events = append(events,
			ChromeEvent{Name: "process_name", Ph: "M", Pid: pidModel,
				Args: map[string]any{"name": "modelled solver (virtual time)"}},
			ChromeEvent{Name: "process_sort_index", Ph: "M", Pid: pidModel,
				Args: map[string]any{"sort_index": pidModel}},
		)
	}
	for _, s := range spans {
		e := ChromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   s.StartUS,
			Dur:  s.DurUS,
			Pid:  pidServing,
			Tid:  0,
			Cat:  "stage",
			Args: map[string]any{"kind": "stage", "name": s.Name, "span": s.ID, "parent": s.Parent},
		}
		if s.Track != "" {
			e.Pid = pidModel
			e.Tid = trackTid[s.Track]
			e.Cat = "model"
			e.Args["kind"] = "model"
			e.Args["track"] = s.Track
		}
		for _, a := range s.Attrs {
			e.Args[a.Key] = a.Value
		}
		events = append(events, e)
	}
	return WriteChromeEvents(out, events)
}
