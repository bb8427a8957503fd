package mpi

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/report"
)

// RankStats is one rank's activity breakdown over a recorded trace.
// Seconds are virtual; only primitive spans (compute, send, recv, wait)
// contribute, so nested collective/phase wrappers are not double-counted.
type RankStats struct {
	Rank     int
	ComputeS float64 // compute spans
	CommS    float64 // send + recv overhead spans
	WaitS    float64 // busy-wait spans (blocked on messages or barriers)
	IdleS    float64 // makespan minus everything attributed above
}

// Busy returns the attributed (non-idle) seconds.
func (r *RankStats) Busy() float64 { return r.ComputeS + r.CommS + r.WaitS }

// TraceStats is the result of AnalyzeSpans: per-rank breakdowns plus the
// critical path through the virtual-time DAG.
type TraceStats struct {
	Ranks    []RankStats
	Makespan float64

	// CriticalS is the accumulated cost of the critical path: the longest
	// chain of compute/communication spans linked by program order within
	// a rank and by matched send→recv pairs across ranks. Wait spans are
	// traversable at zero cost (a rank blocked on a message is not doing
	// work the path has to account for), so CriticalS ≤ Makespan and the
	// gap is synchronisation slack.
	CriticalS        float64
	CriticalComputeS float64
	CriticalCommS    float64
	// CriticalSpans counts the costed spans on the path and CriticalHops
	// how many times the path crosses ranks over a message edge.
	CriticalSpans int
	CriticalHops  int
}

// msgKey identifies one FIFO message stream for send→recv matching.
type msgKey struct {
	src, dst, tag int
}

// AnalyzeSpans computes per-rank breakdowns and the critical path of a
// recorded trace (World.Spans or ReadChromeTrace output). Only primitive
// spans participate; collective and phase wrapper spans are ignored.
//
// The per-rank tables are indexed by rank and sized by the primitive
// spans' ranks, which must be dense: a span whose rank is negative or not
// below the number of spans is refused, so the tables stay bounded by the
// input.
func AnalyzeSpans(spans []Span) (*TraceStats, error) {
	// Primitive spans in global time order (stable keeps per-rank program
	// order for identical starts, e.g. zero-overhead cost models).
	var prim []Span
	maxRank := -1
	makespan := 0.0
	for _, s := range spans {
		if s.Rank < 0 || s.Rank >= len(spans) {
			return nil, fmt.Errorf("mpi: %s span has rank %d, outside [0,%d): ranks must be dense", s.Kind, s.Rank, len(spans))
		}
		if s.End > makespan {
			makespan = s.End
		}
		switch s.Kind {
		case "compute", "send", "recv", "wait":
			prim = append(prim, s)
			if s.Rank > maxRank {
				maxRank = s.Rank
			}
		}
	}
	if len(prim) == 0 {
		return nil, fmt.Errorf("mpi: no primitive spans to analyze")
	}
	sort.SliceStable(prim, func(i, j int) bool {
		if prim[i].Start != prim[j].Start {
			return prim[i].Start < prim[j].Start
		}
		return prim[i].End < prim[j].End
	})

	stats := make([]RankStats, maxRank+1)
	for r := range stats {
		stats[r].Rank = r
	}
	for _, s := range prim {
		d := s.End - s.Start
		switch s.Kind {
		case "compute":
			stats[s.Rank].ComputeS += d
		case "send", "recv":
			stats[s.Rank].CommS += d
		case "wait":
			stats[s.Rank].WaitS += d
		}
	}
	for r := range stats {
		idle := makespan - stats[r].Busy()
		if idle < 0 {
			idle = 0
		}
		stats[r].IdleS = idle
	}

	// Longest path over the DAG: program-order edges chain each rank's
	// spans; message edges link the i-th send on a (src,dst,tag) stream to
	// the i-th recv (the runtime delivers per-stream FIFO). prim is sorted
	// by start time and every edge points forward in time, so a single
	// left-to-right sweep is a topological traversal.
	sends := make(map[msgKey][]int) // span indices of unmatched sends
	recvd := make(map[msgKey]int)   // recvs consumed per stream
	dist := make([]float64, len(prim))
	lastOfRank := make([]int, maxRank+1)
	for r := range lastOfRank {
		lastOfRank[r] = -1
	}
	pred := make([]int, len(prim))
	for i, s := range prim {
		switch s.Kind {
		case "send":
			k := msgKey{src: s.Rank, dst: s.Peer, tag: s.Tag}
			sends[k] = append(sends[k], i)
		case "recv":
			// Sends precede their recvs in time, so the matching send has
			// already been indexed when the sweep reaches the recv.
		}
		cost := s.End - s.Start
		if s.Kind == "wait" {
			cost = 0
		}
		best, from := 0.0, -1
		if p := lastOfRank[s.Rank]; p >= 0 && dist[p] > best {
			best, from = dist[p], p
		}
		if s.Kind == "recv" {
			k := msgKey{src: s.Peer, dst: s.Rank, tag: s.Tag}
			idx := recvd[k]
			if q := sends[k]; idx < len(q) {
				if d := dist[q[idx]]; d > best {
					best, from = d, q[idx]
				}
				recvd[k] = idx + 1
			}
		}
		dist[i] = best + cost
		pred[i] = from
		lastOfRank[s.Rank] = i
	}

	out := &TraceStats{Ranks: stats, Makespan: makespan}
	end := 0
	for i := range dist {
		if dist[i] > dist[end] {
			end = i
		}
	}
	for i := end; i >= 0; i = pred[i] {
		s := prim[i]
		switch s.Kind {
		case "compute":
			out.CriticalComputeS += s.End - s.Start
			out.CriticalSpans++
		case "send", "recv":
			out.CriticalCommS += s.End - s.Start
			out.CriticalSpans++
		}
		if p := pred[i]; p >= 0 && prim[p].Rank != s.Rank {
			out.CriticalHops++
		}
	}
	out.CriticalS = dist[end]
	return out, nil
}

// pct formats v as a percentage of total.
func pct(v, total float64) string {
	if total <= 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*v/total)
}

// WriteReport renders the per-rank breakdown and critical-path summary as
// aligned text tables (the cmd/tracestats output, also surfaced by the
// benchmark tools' -trace flags).
func (st *TraceStats) WriteReport(w io.Writer) error {
	t := &report.Table{
		Title:   "Per-rank activity (virtual seconds)",
		Headers: []string{"rank", "compute", "comm", "wait", "idle", "compute%", "comm%", "wait%"},
	}
	for _, r := range st.Ranks {
		t.Add(r.Rank, r.ComputeS, r.CommS, r.WaitS, r.IdleS,
			pct(r.ComputeS, st.Makespan), pct(r.CommS, st.Makespan), pct(r.WaitS, st.Makespan))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	c := &report.Table{
		Title:   "Critical path (virtual-time DAG)",
		Headers: []string{"makespan_s", "critical_s", "critical%", "compute_s", "comm_s", "spans", "rank_hops"},
	}
	c.Add(st.Makespan, st.CriticalS, pct(st.CriticalS, st.Makespan),
		st.CriticalComputeS, st.CriticalCommS, st.CriticalSpans, st.CriticalHops)
	return c.Render(w)
}

// WriteCSV emits the per-rank breakdown as CSV (machine-readable
// counterpart of WriteReport; the critical-path summary rides along as a
// second table).
func (st *TraceStats) WriteCSV(w io.Writer) error {
	t := &report.Table{
		Headers: []string{"rank", "compute_s", "comm_s", "wait_s", "idle_s"},
	}
	for _, r := range st.Ranks {
		t.Add(r.Rank, r.ComputeS, r.CommS, r.WaitS, r.IdleS)
	}
	if err := t.CSV(w); err != nil {
		return err
	}
	c := &report.Table{
		Headers: []string{"makespan_s", "critical_s", "critical_compute_s", "critical_comm_s", "critical_spans", "rank_hops"},
	}
	c.Add(st.Makespan, st.CriticalS, st.CriticalComputeS, st.CriticalCommS, st.CriticalSpans, st.CriticalHops)
	return c.CSV(w)
}
