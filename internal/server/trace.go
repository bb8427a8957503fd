package server

import (
	"encoding/hex"
	"net/http"
	"time"

	"repro/internal/telemetry"
)

// Request records. A traced request keeps one fixed-size value, its
// requestRecord: the trace ID, the instant it started, one monotonic
// offset per stage boundary, how it was answered, and a reference to the
// modelled cells its response already holds. A stage boundary costs one
// clock read; nothing is built per stage. What a reader sees — the digest
// at /debug/requests, the trace at /debug/trace/{id} with its attributes
// and virtual solver spans, the modelled energy — is derived from the
// record when it is read. A nil *requestRecord is inert: the untraced
// path costs one branch per boundary.

// stage is one serving stage, numbered in the order stages start.
type stage uint8

const (
	stageParse stage = iota
	stageCacheLookup
	stageSurrogate
	stageCoalesce
	stageAdmission
	stageCompute
	stageSimulate
	stageMarshal
	numStages
)

var stageNames = [numStages]string{"parse", "cache-lookup", "surrogate", "coalesce", "admission-queue", "compute", "simulate", "marshal"}

// source is how a response was produced; the pipeline sets the stage that
// actually answered (last writer wins).
type source uint8

const (
	sourceNone source = iota // answered before the cache: a parse failure
	sourceCache
	sourceSurrogate
	sourceCoalesced
	sourceCompute
	sourceError
)

var sourceNames = [...]string{"", "cache", "surrogate", "coalesced", "compute", "error"}

// interval is one stage's start and end, as offsets from the request's
// start.
type interval struct{ start, end time.Duration }

// requestRecord is one traced request. It is written by the request's own
// goroutine only (the memo runs the compute closure on the leader's
// goroutine; followers never run it), then copied by value into the ring.
type requestRecord struct {
	id     [16]byte
	start  time.Time     // instrument's start read: the root span's start
	dur    time.Duration // instrument's end read: the root span's duration
	stages [numStages]interval
	ran    uint16 // bit k: stage k ran

	endpoint, method, path string
	status                 int
	errMsg                 string
	source                 source
	shared                 bool // the coalesce stage received another request's result

	// What the compute modelled: the response's cells, predict's
	// compute/exposed-comm split of its one cell, a schedule's summary.
	cells              []CellResult
	computeS, exposedS float64
	jobs               int
	makespanS          float64
	scheduleDigest     string

	seq uint64 // the ring's arrival number, for newest-first lookups
}

// recordOf returns the record of the request w answers, or nil when the
// request is untraced.
func recordOf(w http.ResponseWriter) *requestRecord {
	if sw, ok := w.(*statusWriter); ok {
		return sw.rec
	}
	return nil
}

// now reads the clock once: the offset of this instant from the request's
// start.
func (r *requestRecord) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// end closes stage k, begun at from, with one clock read, and returns the
// read: where the next stage begins.
func (r *requestRecord) end(k stage, from time.Duration) time.Duration {
	if r == nil {
		return 0
	}
	to := time.Since(r.start)
	r.stages[k] = interval{from, to}
	r.ran |= 1 << k
	return to
}

func (r *requestRecord) setSource(s source) {
	if r != nil {
		r.source = s
	}
}

func (r *requestRecord) has(k stage) bool { return r.ran&(1<<k) != 0 }

// micros converts an offset to the microseconds spans and digests carry.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// digest is the record's /debug/requests view: its stages are the ones
// that ran, in the order they started, and its energy is its cells', in
// cell order.
func (r *requestRecord) digest() RequestDigest {
	d := RequestDigest{
		ID:         hex.EncodeToString(r.id[:]),
		Endpoint:   r.endpoint,
		Status:     r.status,
		Source:     sourceNames[r.source],
		DurationUS: micros(r.dur),
		Error:      r.errMsg,
	}
	for _, c := range r.cells {
		d.EnergyJ += c.TotalJ
	}
	for k := range numStages {
		if r.has(k) {
			iv := r.stages[k]
			d.Stages = append(d.Stages, StageTiming{Name: stageNames[k], DurUS: micros(iv.end - iv.start)})
		}
	}
	return d
}

// stageAttrs are the attributes stage k's span carries. The outcome of
// each stage before the compute follows from the ones that ran after it
// and from the source: a parse succeeded if the cache was looked up, the
// cache or the surrogate answered if it is the source.
func (r *requestRecord) stageAttrs(k stage) []telemetry.Attr {
	switch k {
	case stageParse:
		return []telemetry.Attr{{Key: "ok", Value: r.has(stageCacheLookup)}}
	case stageCacheLookup:
		return []telemetry.Attr{{Key: "hit", Value: r.source == sourceCache}}
	case stageSurrogate:
		return []telemetry.Attr{{Key: "in_envelope", Value: r.source == sourceSurrogate}}
	case stageCoalesce:
		return []telemetry.Attr{{Key: "shared", Value: r.shared}}
	case stageSimulate:
		return []telemetry.Attr{
			{Key: "jobs", Value: r.jobs},
			{Key: "makespan_s", Value: r.makespanS},
			{Key: "digest", Value: r.scheduleDigest},
		}
	}
	return nil
}

// trace is the record's /debug/trace view: the request as the root span,
// each stage that ran under it, and each modelled cell as a virtual
// "solve" span under the compute stage on its algorithm's track, tiled
// one after another per track, with predict's cell split into its
// compute and exposed-comm children (perfmodel guarantees DurationS =
// ComputeS + ExposedCommS, so the two partition the wrapper exactly).
func (r *requestRecord) trace() *telemetry.Trace {
	tr := telemetry.NewTrace(hex.EncodeToString(r.id[:]))
	root := tr.AddSpan(telemetry.SpanRecord{Name: r.endpoint, DurUS: micros(r.dur), Attrs: []telemetry.Attr{
		{Key: "method", Value: r.method},
		{Key: "path", Value: r.path},
		{Key: "status", Value: r.status},
		{Key: "source", Value: sourceNames[r.source]},
	}})
	var compute uint64
	for k := range numStages {
		if !r.has(k) {
			continue
		}
		iv := r.stages[k]
		id := tr.AddSpan(telemetry.SpanRecord{Parent: root, Name: stageNames[k],
			StartUS: micros(iv.start), DurUS: micros(iv.end - iv.start), Attrs: r.stageAttrs(k)})
		if k == stageCompute {
			compute = id
		}
	}
	ends := map[string]float64{}
	for _, c := range r.cells {
		start := ends[c.Algorithm]
		ends[c.Algorithm] = start + c.DurationS
		id := tr.AddVirtualSpan(c.Algorithm, "solve", compute, start, start+c.DurationS,
			telemetry.Attr{Key: "n", Value: c.N},
			telemetry.Attr{Key: "ranks", Value: c.Ranks},
			telemetry.Attr{Key: "duration_s", Value: c.DurationS},
			telemetry.Attr{Key: "energy_j", Value: c.TotalJ},
			telemetry.Attr{Key: "pkg_j", Value: c.PkgJ},
			telemetry.Attr{Key: "dram_j", Value: c.DramJ},
		)
		if r.computeS > 0 || r.exposedS > 0 {
			tr.AddVirtualSpan(c.Algorithm, "compute", id, start, start+r.computeS)
			tr.AddVirtualSpan(c.Algorithm, "exposed-comm", id, start+r.computeS, start+r.computeS+r.exposedS)
		}
	}
	return tr
}
