// Package telemetry is the unified metrics layer of the reproduction: a
// lock-cheap registry of counters, gauges and fixed-bucket histograms with
// Prometheus-text and JSON exposition.
//
// The simulated MPI runtime, both solvers and the RAPL accounting all
// feed instruments from this package, which is what turns the aggregate
// energy figures of the paper's framework into attributable ones ("which
// loop, which message, which socket" — the phase-level attribution Simsek
// et al. and EfiMon argue for).
//
// Design constraints, in order:
//
//  1. Disabled telemetry must cost nothing on hot paths. Every instrument
//     method is nil-safe, so call sites keep a single predictable
//     nil-check branch and no allocation.
//  2. Updates are wait-free reads-modify-writes on atomics (CAS loops for
//     float accumulation), never a mutex: simulated ranks are goroutines
//     hammering shared counters from tight messaging loops.
//  3. Exposition is deterministic — series are sorted — so exports can be
//     golden-file tested and diffed across runs.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically non-decreasing float64 accumulator.
// All methods are nil-safe no-ops so disabled telemetry costs one branch.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Add accumulates v; negative deltas are ignored (counters are monotone).
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 || math.IsNaN(v) {
		return
	}
	addFloat(&c.bits, v)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the accumulated total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is an instantaneous float64 value that can move both ways.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by v (either sign).
func (g *Gauge) Add(v float64) {
	if g == nil || v == 0 || math.IsNaN(v) {
		return
	}
	addFloat(&g.bits, v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets with inclusive upper
// bounds (Prometheus `le` semantics) plus an implicit +Inf bucket. Each
// bucket additionally holds the latest exemplar recorded into it (an
// observation tagged with the trace ID that produced it), so a latency
// spike in the exposition links straight to a fetchable request trace.
type Histogram struct {
	bounds    []float64 // ascending upper bounds; immutable after creation
	buckets   []atomic.Uint64
	exemplars []atomic.Pointer[Exemplar]
	count     atomic.Uint64
	sumBits   atomic.Uint64
}

// Exemplar ties one observation to the trace that produced it
// (OpenMetrics exemplar semantics: the newest observation wins).
type Exemplar struct {
	Value   float64
	TraceID string
}

// ObserveWithExemplar records one sample and, when traceID is non-empty,
// stores it as the owning bucket's exemplar (lock-free pointer swap; the
// newest observation per bucket is kept).
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// First bound ≥ v is the owning bucket; beyond all bounds → +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID})
	}
}

// Exemplars returns the per-bucket exemplars (last entry is the +Inf
// bucket); buckets that never saw a tagged observation are nil.
func (h *Histogram) Exemplars() []*Exemplar {
	if h == nil {
		return nil
	}
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// CountWithin returns how many observations fell in the buckets bounded
// at or below bound, and how many there are in all, from one pass over
// the buckets: within never exceeds total, even under concurrent
// Observe calls. within is the number of observations ≤ bound exactly
// when bound is one of the histogram's bounds.
func (h *Histogram) CountWithin(bound float64) (within, total uint64) {
	if h == nil {
		return 0, 0
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		total += n
		if i < len(h.bounds) && h.bounds[i] <= bound {
			within += n
		}
	}
	return within, total
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Bounds returns the bucket upper bounds (excluding +Inf).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// BucketCounts returns the per-bucket counts; the last entry is the +Inf
// bucket. Counts are non-cumulative.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// addFloat CAS-accumulates a float64 delta into bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// kind discriminates the instrument stored in a registry entry.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// entry is one registered series: a base name, an optional label set and
// exactly one instrument.
type entry struct {
	base   string
	labels string // rendered `k="v",…` sorted by key; "" when unlabelled
	help   string
	kind   kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named instruments. Creation takes a mutex; updates on the
// returned instruments never do. The zero value is not usable — call
// NewRegistry. A nil *Registry is safe: every constructor returns nil,
// which in turn makes the instrument methods no-ops, so a single registry
// pointer gates a whole instrumentation tree.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Counter returns the counter registered under name and the given label
// pairs (key, value, key, value, …), creating it on first use. Re-requests
// with the same identity return the same instrument; an identity collision
// with a different instrument kind panics (programmer error).
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	e := r.lookup(name, help, kindCounter, labelPairs)
	if e == nil {
		return nil
	}
	return e.c
}

// Gauge is the gauge counterpart of Counter.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	e := r.lookup(name, help, kindGauge, labelPairs)
	if e == nil {
		return nil
	}
	return e.g
}

// Histogram returns the histogram registered under name with the given
// ascending bucket upper bounds (a +Inf bucket is implicit). Bounds are
// fixed at first registration; later calls ignore the argument.
func (r *Registry) Histogram(name, help string, bounds []float64, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending: %v", name, bounds))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.lookupLocked(name, help, kindHistogram, labelPairs)
	if e.h == nil {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		e.h = &Histogram{
			bounds:    b,
			buckets:   make([]atomic.Uint64, len(b)+1),
			exemplars: make([]atomic.Pointer[Exemplar], len(b)+1),
		}
	}
	return e.h
}

// lookup get-or-creates an entry under the registry lock.
func (r *Registry) lookup(name, help string, k kind, labelPairs []string) *entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.lookupLocked(name, help, k, labelPairs)
	switch k {
	case kindCounter:
		if e.c == nil {
			e.c = &Counter{}
		}
	case kindGauge:
		if e.g == nil {
			e.g = &Gauge{}
		}
	}
	return e
}

func (r *Registry) lookupLocked(name, help string, k kind, labelPairs []string) *entry {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	labels := renderLabels(labelPairs)
	key := name + "{" + labels + "}"
	if e, ok := r.entries[key]; ok {
		if e.kind != k {
			panic(fmt.Sprintf("telemetry: %s already registered as %s, requested as %s", key, e.kind, k))
		}
		return e
	}
	e := &entry{base: name, labels: labels, help: help, kind: k}
	r.entries[key] = e
	return e
}

// snapshot returns the entries sorted by (base, labels) for exposition.
func (r *Registry) snapshot() []*entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].base != out[j].base {
			return out[i].base < out[j].base
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// validName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// renderLabels turns (k, v, k, v, …) pairs into a deterministic
// `k="v",…` fragment sorted by key.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label pair list %q", pairs))
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		if !validName(pairs[i]) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", pairs[i]))
		}
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	return b.String()
}
