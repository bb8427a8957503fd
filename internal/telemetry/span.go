package telemetry

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"strings"
)

// Request-scoped traces. Where the mpi tracer records a solver's
// *virtual-time* schedule, a Trace holds the *wall-clock* life of one
// serving-layer request — or a fleet timeline — as a bag of finished
// spans under a W3C-style trace ID, exportable in the same
// Perfetto/Chrome format the engine traces use, so "why was this request
// slow" and "what did the modelled solver cost" are answered by one
// artifact.
//
// A Trace is assembled after the fact from what its owner recorded (the
// advisor's per-request record, the scheduler's attempt log), on one
// goroutine: it carries no clock and no lock.

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
// W3C trace ID. Construct with NewTrace. A nil *Trace is inert.
type Trace struct {
	id     string
	nextID uint64
	spans  []SpanRecord
}

// NewTrace returns an empty trace with the given ID.
func NewTrace(id string) *Trace {
	return &Trace{id: id}
}

// NewTraceID returns a random 16-byte W3C trace ID. The spec asks for
// uniqueness, not unpredictability, so it is drawn from the runtime's
// per-thread generator rather than the system's entropy source.
func NewTraceID() (id [16]byte) {
	binary.LittleEndian.PutUint64(id[:8], rand.Uint64())
	binary.LittleEndian.PutUint64(id[8:], rand.Uint64())
	return id
}

// AddSpan appends a finished span, numbering it, and returns its ID so
// later spans can name it as their parent. The ID field of s is ignored.
func (t *Trace) AddSpan(s SpanRecord) uint64 {
	if t == nil {
		return 0
	}
	t.nextID++
	s.ID = t.nextID
	t.spans = append(t.spans, s)
	return s.ID
}

// AddVirtualSpan appends a finished model-time span on a named track
// (virtual solver seconds, not wall time), parented under parent (0 =
// root). It returns the new span's ID so virtual spans can nest.
func (t *Trace) AddVirtualSpan(track, name string, parent uint64, startS, endS float64, attrs ...Attr) uint64 {
	if track == "" {
		return 0
	}
	return t.AddSpan(SpanRecord{
		Parent:  parent,
		Name:    name,
		Track:   track,
		StartUS: startS * 1e6,
		DurUS:   (endS - startS) * 1e6,
		Attrs:   attrs,
	})
}

// sorted returns the recorded spans sorted by (track, start, -end): the
// wall-clock request track first, then the virtual tracks, each with
// wrappers before the primitives they contain.
func (t *Trace) sorted() []SpanRecord {
	if t == nil {
		return nil
	}
	out := append([]SpanRecord(nil), t.spans...)
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

// FormatTraceparent renders the W3C traceparent header advertising a
// trace: version 00, the trace ID, span 1 as parent-id, sampled flag set.
func FormatTraceparent(id [16]byte) string {
	var b [55]byte
	copy(b[:], "00-")
	hex.Encode(b[3:35], id[:])
	copy(b[35:], "-0000000000000001-01")
	return string(b[:])
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
	spans := t.sorted()
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
