package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Service-level objectives and multi-window burn rates.
//
// An SLO declares, per request class, how fast and how available the
// service promises to be. The tracker keeps no counts of its own: it
// reads each objective's cumulative counts from its owner's instruments
// (for the advisor, the latency histogram and the 5xx request counters)
// and keeps a bounded ring of periodic snapshots of them, so it can
// answer the question cumulative counters cannot: "how fast are we
// burning the error budget *right now*, over the last 5 minutes / hour?"
// — the multi-window burn-rate alerting discipline of the SRE workbook.
//
// A burn rate of 1 means the budget is being spent exactly at the
// sustainable pace (it lasts precisely the SLO period); a rate of 14.4
// spends a 30-day budget in 50 hours — the canonical page threshold.

// SLO declares one request class's objectives. LatencyTarget is the
// fraction of requests that must finish within LatencyBoundS (e.g. 0.99
// within 5ms ⇒ "p99 ≤ 5ms"); AvailabilityTarget the fraction that must
// not fail with a 5xx.
type SLO struct {
	Name               string  `json:"name"`
	LatencyBoundS      float64 `json:"latency_bound_s"`
	LatencyTarget      float64 `json:"latency_target"`
	AvailabilityTarget float64 `json:"availability_target"`
}

// SLOWindow is one burn-rate lookback window.
type SLOWindow struct {
	Name  string
	Width time.Duration
}

// DefaultSLOWindows are the standard multi-window alerting lookbacks.
func DefaultSLOWindows() []SLOWindow {
	return []SLOWindow{
		{"5m", 5 * time.Minute},
		{"30m", 30 * time.Minute},
		{"1h", time.Hour},
		{"6h", 6 * time.Hour},
	}
}

// Burn-rate verdict thresholds: burning faster than sustainable flags
// the objective at-risk; the canonical page-level burn (a 30-day budget
// gone in ~2 days) flags a breach, as does cumulative non-compliance.
const (
	burnAtRisk = 1.0
	burnBreach = 14.4
)

// SLOCounts are one objective's cumulative request counts: all requests,
// those slower than the latency bound, and those that failed with a 5xx.
type SLOCounts struct {
	Total, Slow, Bad uint64
}

// sloSnap is one ring entry: the cumulative counts at time t.
type sloSnap struct {
	t time.Time
	SLOCounts
}

// sloState is one objective's snapshot ring.
type sloState struct {
	slo  SLO
	ring []sloSnap // guarded by the tracker mutex
}

// SLOTracker reports a set of objectives over counts read from a source.
// Construct with NewSLOTracker; methods are safe for concurrent use and
// nil-safe.
type SLOTracker struct {
	counts    func(SLO) SLOCounts
	order     []*sloState
	windows   []SLOWindow
	snapEvery time.Duration
	now       func() time.Time
	start     time.Time

	lastSnapNS atomic.Int64
	mu         sync.Mutex // guards the rings
}

// SLOTrackerOptions tunes NewSLOTracker; the zero value selects a 5s
// snapshot cadence and the wall clock.
type SLOTrackerOptions struct {
	SnapEvery time.Duration
	Now       func() time.Time
}

// NewSLOTracker returns a tracker for the given objectives, reading their
// cumulative counts from counts. The counts of each objective must never
// decrease, and Slow and Bad never exceed Total.
func NewSLOTracker(objectives []SLO, counts func(SLO) SLOCounts, opts SLOTrackerOptions) *SLOTracker {
	if opts.SnapEvery <= 0 {
		opts.SnapEvery = 5 * time.Second
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	t := &SLOTracker{
		counts:    counts,
		windows:   DefaultSLOWindows(),
		snapEvery: opts.SnapEvery,
		now:       opts.Now,
		start:     opts.Now(),
	}
	t.lastSnapNS.Store(t.start.UnixNano())
	for _, o := range objectives {
		t.order = append(t.order, &sloState{slo: o})
	}
	return t
}

// Tick appends one ring entry per objective when the snapshot cadence has
// elapsed by now; call it as requests finish, with the time each one
// ended. Short of a due snapshot it costs one atomic load; the CAS elects
// exactly one snapshotter.
func (t *SLOTracker) Tick(now time.Time) {
	if t == nil {
		return
	}
	last := t.lastSnapNS.Load()
	if now.UnixNano()-last < int64(t.snapEvery) {
		return
	}
	if !t.lastSnapNS.CompareAndSwap(last, now.UnixNano()) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	horizon := now.Add(-t.maxWindow() - t.snapEvery)
	for _, st := range t.order {
		st.ring = append(st.ring, sloSnap{t: now, SLOCounts: t.counts(st.slo)})
		// Prune entries older than any window can reach.
		cut := 0
		for cut < len(st.ring)-1 && st.ring[cut].t.Before(horizon) {
			cut++
		}
		if cut > 0 {
			st.ring = append(st.ring[:0], st.ring[cut:]...)
		}
	}
}

func (t *SLOTracker) maxWindow() time.Duration {
	var max time.Duration
	for _, w := range t.windows {
		if w.Width > max {
			max = w.Width
		}
	}
	return max
}

// SLOWindowReport is one lookback window's burn rates for one objective.
type SLOWindowReport struct {
	Window           string  `json:"window"`
	CoveredS         float64 `json:"covered_s"` // how much history backs the rate
	Requests         uint64  `json:"requests"`
	LatencyBurn      float64 `json:"latency_burn_rate"`
	AvailabilityBurn float64 `json:"availability_burn_rate"`
}

// SLOStatus is one objective's full report.
type SLOStatus struct {
	SLO
	Requests          uint64            `json:"requests"`
	LatencyCompliance float64           `json:"latency_compliance"` // cumulative fraction within bound
	Availability      float64           `json:"availability"`       // cumulative non-5xx fraction
	Verdict           string            `json:"verdict"`            // ok | at-risk | breach
	Windows           []SLOWindowReport `json:"windows"`
}

// SLOReport is the tracker's full serialisable state.
type SLOReport struct {
	Objectives []SLOStatus `json:"objectives"`
}

// Report computes cumulative compliance and per-window burn rates for
// every objective, in declaration order.
func (t *SLOTracker) Report() SLOReport {
	if t == nil {
		return SLOReport{Objectives: []SLOStatus{}}
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	rep := SLOReport{Objectives: make([]SLOStatus, 0, len(t.order))}
	for _, st := range t.order {
		head := sloSnap{t: now, SLOCounts: t.counts(st.slo)}
		status := SLOStatus{
			SLO:               st.slo,
			Requests:          head.Total,
			LatencyCompliance: 1,
			Availability:      1,
			Verdict:           "ok",
		}
		if head.Total > 0 {
			status.LatencyCompliance = 1 - float64(head.Slow)/float64(head.Total)
			status.Availability = 1 - float64(head.Bad)/float64(head.Total)
		}
		worstBurn := 0.0
		for _, w := range t.windows {
			base := t.baseFor(st, now, w.Width)
			wr := SLOWindowReport{
				Window:   w.Name,
				CoveredS: now.Sub(base.t).Seconds(),
				Requests: head.Total - base.Total,
			}
			if wr.Requests > 0 {
				slowFrac := float64(head.Slow-base.Slow) / float64(wr.Requests)
				badFrac := float64(head.Bad-base.Bad) / float64(wr.Requests)
				wr.LatencyBurn = burn(slowFrac, st.slo.LatencyTarget)
				wr.AvailabilityBurn = burn(badFrac, st.slo.AvailabilityTarget)
			}
			if wr.LatencyBurn > worstBurn {
				worstBurn = wr.LatencyBurn
			}
			if wr.AvailabilityBurn > worstBurn {
				worstBurn = wr.AvailabilityBurn
			}
			status.Windows = append(status.Windows, wr)
		}
		breached := head.Total > 0 &&
			(status.LatencyCompliance < st.slo.LatencyTarget || status.Availability < st.slo.AvailabilityTarget)
		switch {
		case breached || worstBurn >= burnBreach:
			status.Verdict = "breach"
		case worstBurn > burnAtRisk:
			status.Verdict = "at-risk"
		}
		rep.Objectives = append(rep.Objectives, status)
	}
	return rep
}

// baseFor finds the newest snapshot at least width old (the window
// base); with no history that old it falls back to the oldest snapshot,
// or to the tracker's start (zero counts) when the ring is empty — the
// report's CoveredS exposes the shortfall.
func (t *SLOTracker) baseFor(st *sloState, now time.Time, width time.Duration) sloSnap {
	cutoff := now.Add(-width)
	base := sloSnap{t: t.start}
	for _, s := range st.ring {
		if s.t.After(cutoff) {
			break
		}
		base = s
	}
	return base
}

// burn converts a bad-event fraction into an error-budget burn rate.
func burn(badFrac, target float64) float64 {
	budget := 1 - target
	if budget <= 0 {
		if badFrac > 0 {
			return burnBreach
		}
		return 0
	}
	return badFrac / budget
}
