package mpi

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/rapl"
	"repro/internal/telemetry"
)

// Span is one recorded interval of a rank's virtual timeline.
//
// Kind identifies the primitive ("compute", "wait", "send", "recv") or a
// wrapper ("collective" around a whole collective call, "phase" around an
// algorithm phase, "mark" for zero-length instants). Wrapper spans nest
// around the primitives they contain; analysis passes that sum time must
// use primitives only.
type Span struct {
	Rank  int
	Kind  string
	Name  string // collective or phase name; "" for primitives
	Start float64
	End   float64
	Peer  int   // world rank of the remote side; -1 when not a message
	Tag   int   // message tag; meaningless when Peer < 0
	Bytes int64 // payload bytes; 0 when not a message
	Level int   // solver level / panel index; -1 when not attributed
}

// DisplayName is the span's row label in trace viewers: the phase or
// collective name (with the solver level appended when attributed), else
// the primitive kind.
func (s *Span) DisplayName() string {
	if s.Name == "" {
		return s.Kind
	}
	if s.Level >= 0 {
		return fmt.Sprintf("%s %d", s.Name, s.Level)
	}
	return s.Name
}

// CounterSample is one reading of a node's per-domain RAPL energy on the
// virtual timeline, recorded while tracing is enabled. Joules follow the
// rapl.Domains() order (PKG0, PKG1, DRAM0, DRAM1).
type CounterSample struct {
	Node   int
	Time   float64
	Joules [4]float64
}

// counterSampleInterval is the minimum virtual-time spacing between two
// recorded energy samples of one node — matched to the simulated RAPL
// refresh so the counter track has hardware-plausible resolution.
const counterSampleInterval = 1e-3

// tracer collects spans and RAPL counter samples when tracing is enabled.
type tracer struct {
	mu      sync.Mutex
	spans   []Span
	samples []CounterSample
	// lastSample[node] is the virtual time of the node's latest energy
	// sample. Guarded by the world's per-node mutex (all writers of a
	// node's entry hold nodeMu[node]), not by mu.
	lastSample []float64
}

func (tr *tracer) add(s Span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// sampleLocked records a node's energy state at time now if the sampling
// interval has elapsed. Caller holds nodeMu[node].
func (tr *tracer) sampleLocked(node int, n *rapl.Node, now float64) {
	if now < tr.lastSample[node]+counterSampleInterval {
		return
	}
	tr.lastSample[node] = now
	s := CounterSample{Node: node, Time: now}
	for i, d := range rapl.Domains() {
		s.Joules[i] = n.ExactEnergy(d)
	}
	tr.mu.Lock()
	tr.samples = append(tr.samples, s)
	tr.mu.Unlock()
}

// EnableTracing switches on span recording (and RAPL counter sampling) for
// all subsequent operations. Call before Run. Recording is passive: it
// never changes virtual time, energy or numerics.
func (w *World) EnableTracing() {
	tr := &tracer{lastSample: make([]float64, len(w.nodes))}
	// A t=0 baseline sample per node anchors the counter tracks.
	for i, n := range w.nodes {
		tr.lastSample[i] = 0
		s := CounterSample{Node: i, Time: 0}
		for j, d := range rapl.Domains() {
			s.Joules[j] = n.ExactEnergy(d)
		}
		tr.samples = append(tr.samples, s)
	}
	w.trace = tr
}

// Spans returns the recorded spans sorted by (rank, start). Empty without
// EnableTracing.
func (w *World) Spans() []Span {
	if w.trace == nil {
		return nil
	}
	w.trace.mu.Lock()
	out := make([]Span, len(w.trace.spans))
	copy(out, w.trace.spans)
	w.trace.mu.Unlock()
	// Stable: a rank's spans were recorded in its program order, which
	// settles spans that coincide (a barrier and the wait inside it) the
	// same way on every run, however the ranks' recordings interleaved.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		// Wrappers started at the same instant as their first primitive
		// sort first (they end later), keeping nesting well-formed.
		return out[i].End > out[j].End
	})
	return out
}

// CounterSamples returns the recorded RAPL energy samples sorted by
// (node, time), with one final sample per node appended at the node's
// current clock. Call after Run.
func (w *World) CounterSamples() []CounterSample {
	if w.trace == nil {
		return nil
	}
	for i, n := range w.nodes {
		w.nodeMu[i].Lock()
		if now := n.Now(); now > w.trace.lastSample[i] {
			w.trace.lastSample[i] = now
			s := CounterSample{Node: i, Time: now}
			for j, d := range rapl.Domains() {
				s.Joules[j] = n.ExactEnergy(d)
			}
			w.trace.mu.Lock()
			w.trace.samples = append(w.trace.samples, s)
			w.trace.mu.Unlock()
		}
		w.nodeMu[i].Unlock()
	}
	w.trace.mu.Lock()
	out := make([]CounterSample, len(w.trace.samples))
	copy(out, w.trace.samples)
	w.trace.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Time < out[j].Time
	})
	return out
}

// record captures one unattributed span if tracing is on.
func (p *Proc) record(kind string, start, end float64) {
	if p.w.trace == nil || end <= start {
		return
	}
	p.w.trace.add(Span{Rank: p.rank, Kind: kind, Start: start, End: end, Peer: -1, Tag: -1, Level: -1})
}

// recordMsg captures one message-side span (send or recv) with its peer,
// tag and payload size.
func (p *Proc) recordMsg(kind string, start, end float64, peer, tag int, elems int) {
	if p.w.trace == nil || end <= start {
		return
	}
	p.w.trace.add(Span{
		Rank: p.rank, Kind: kind, Start: start, End: end,
		Peer: peer, Tag: tag, Bytes: int64(elems) * int64(Float64Bytes), Level: -1,
	})
}

// recordCollective captures a wrapper span around one whole collective
// call (its sends, recvs and waits nest inside it).
func (p *Proc) recordCollective(name string, start float64, elems int) {
	if p.w.trace == nil || p.clock <= start {
		return
	}
	p.w.trace.add(Span{
		Rank: p.rank, Kind: "collective", Name: name, Start: start, End: p.clock,
		Peer: -1, Tag: -1, Bytes: int64(elems) * int64(Float64Bytes), Level: -1,
	})
}

// Phase is an open hierarchical span started by BeginPhase. The zero value
// (tracing disabled) is inert.
type Phase struct {
	name  string
	level int
	start float64
	on    bool
}

// BeginPhase opens a named algorithm phase on this rank's timeline, e.g.
// "panel" or "elimination-level" with the level as attribute (use a
// negative level for unattributed phases). Phases nest: any spans recorded
// before the matching EndPhase render inside it. Free when tracing is off.
func (p *Proc) BeginPhase(name string, level int) Phase {
	if p.w.trace == nil {
		return Phase{}
	}
	return Phase{name: name, level: level, start: p.clock, on: true}
}

// EndPhase closes a phase opened by BeginPhase.
func (p *Proc) EndPhase(ph Phase) {
	if !ph.on || p.w.trace == nil || p.clock <= ph.start {
		return
	}
	p.w.trace.add(Span{
		Rank: p.rank, Kind: "phase", Name: ph.name, Level: ph.level,
		Start: ph.start, End: p.clock, Peer: -1, Tag: -1,
	})
}

// MarkInstant drops a named zero-length marker at the rank's current
// virtual time (rendered as an instant event in trace viewers).
func (p *Proc) MarkInstant(name string) {
	if p.w.trace == nil {
		return
	}
	p.w.trace.add(Span{
		Rank: p.rank, Kind: "mark", Name: name,
		Start: p.clock, End: p.clock, Peer: -1, Tag: -1, Level: -1,
	})
}

// WriteChromeTrace emits the recorded spans and RAPL counter tracks as a
// Chrome trace-event JSON object (load it in ui.perfetto.dev or
// chrome://tracing). Each cluster node is one process row (pid = node id,
// named via process_name metadata), each rank one named thread inside its
// node, and each RAPL domain one per-node counter track carrying the
// node's power in watts computed between consecutive energy samples.
// Timestamps are microseconds of virtual time.
func (w *World) WriteChromeTrace(out io.Writer) error {
	spans := w.Spans()
	if spans == nil {
		return fmt.Errorf("mpi: tracing was not enabled")
	}
	events := make([]telemetry.ChromeEvent, 0, 2*len(spans))
	// Process and thread naming metadata: one process per node, one thread
	// per rank, sorted the way the cluster is laid out.
	for node := range w.nodes {
		events = append(events, telemetry.ChromeEvent{
			Name: "process_name", Ph: "M", Pid: node,
			Args: map[string]any{"name": fmt.Sprintf("node %d", node)},
		}, telemetry.ChromeEvent{
			Name: "process_sort_index", Ph: "M", Pid: node,
			Args: map[string]any{"sort_index": node},
		})
	}
	for rank := 0; rank < w.size; rank++ {
		events = append(events, telemetry.ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: w.nodeOf(rank), Tid: rank,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", rank)},
		}, telemetry.ChromeEvent{
			Name: "thread_sort_index", Ph: "M", Pid: w.nodeOf(rank), Tid: rank,
			Args: map[string]any{"sort_index": rank},
		})
	}
	for _, s := range spans {
		e := telemetry.ChromeEvent{
			Name: s.DisplayName(),
			Ph:   "X",
			Ts:   s.Start * 1e6,
			Dur:  (s.End - s.Start) * 1e6,
			Pid:  w.nodeOf(s.Rank),
			Tid:  s.Rank,
			Cat:  s.Kind,
			Args: map[string]any{"kind": s.Kind},
		}
		if s.Kind == "mark" {
			e.Ph = "i"
			e.Dur = 0
			e.Args["s"] = "t" // thread-scoped instant
		}
		if s.Peer >= 0 {
			e.Args["peer"] = s.Peer
			e.Args["tag"] = s.Tag
		}
		if s.Bytes > 0 {
			e.Args["bytes"] = s.Bytes
		}
		if s.Level >= 0 {
			e.Args["level"] = s.Level
		}
		if s.Name != "" {
			e.Args["name"] = s.Name
		}
		events = append(events, e)
	}
	// RAPL counter tracks: per-node, per-domain power between consecutive
	// samples, stepwise at the earlier sample's timestamp.
	samples := w.CounterSamples()
	for i := 1; i < len(samples); i++ {
		prev, cur := samples[i-1], samples[i]
		if cur.Node != prev.Node || cur.Time <= prev.Time {
			continue
		}
		dt := cur.Time - prev.Time
		for j, d := range rapl.Domains() {
			events = append(events, telemetry.ChromeEvent{
				Name: d.String() + " W",
				Ph:   "C",
				Ts:   prev.Time * 1e6,
				Pid:  cur.Node,
				Args: map[string]any{"W": (cur.Joules[j] - prev.Joules[j]) / dt},
			})
		}
	}
	return telemetry.WriteChromeEvents(out, events)
}

// ReadChromeTrace parses a trace written by WriteChromeTrace back into
// spans — the inverse used by cmd/tracestats to analyse a capture without
// access to the live World. Metadata and counter events are skipped.
func ReadChromeTrace(r io.Reader) ([]Span, error) {
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Tid  int             `json:"tid"`
			Cat  string          `json:"cat"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("mpi: invalid chrome trace: %w", err)
	}
	if doc.TraceEvents == nil {
		return nil, fmt.Errorf("mpi: chrome trace has no traceEvents array")
	}
	var spans []Span
	for i, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if e.Tid < 0 {
			return nil, fmt.Errorf("mpi: trace event %d has negative rank (tid %d)", i, e.Tid)
		}
		s := Span{
			Rank:  e.Tid,
			Kind:  e.Cat,
			Start: e.Ts / 1e6,
			End:   (e.Ts + e.Dur) / 1e6,
			Peer:  -1,
			Tag:   -1,
			Level: -1,
		}
		if len(e.Args) > 0 {
			var args struct {
				Kind  *string `json:"kind"`
				Name  *string `json:"name"`
				Peer  *int    `json:"peer"`
				Tag   *int    `json:"tag"`
				Bytes *int64  `json:"bytes"`
				Level *int    `json:"level"`
			}
			if err := json.Unmarshal(e.Args, &args); err != nil {
				return nil, fmt.Errorf("mpi: invalid span args: %w", err)
			}
			if args.Kind != nil {
				s.Kind = *args.Kind
			}
			if args.Name != nil {
				s.Name = *args.Name
			}
			if args.Peer != nil {
				s.Peer = *args.Peer
			}
			if args.Tag != nil {
				s.Tag = *args.Tag
			}
			if args.Bytes != nil {
				s.Bytes = *args.Bytes
			}
			if args.Level != nil {
				s.Level = *args.Level
			}
		}
		if s.Kind == "" {
			s.Kind = e.Name
		}
		spans = append(spans, s)
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Rank != spans[j].Rank {
			return spans[i].Rank < spans[j].Rank
		}
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	return spans, nil
}
