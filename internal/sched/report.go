package sched

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// SchemaVersion versions the fleet report envelope.
const SchemaVersion = 2

// JobOutcome is one job's scheduling and accounting record.
type JobOutcome struct {
	ID        int     `json:"id"`
	Name      string  `json:"name"`
	Tenant    string  `json:"tenant"`
	Priority  int     `json:"priority"`
	N         int     `json:"n"`
	Ranks     int     `json:"ranks"`
	Algorithm string  `json:"algorithm"`
	Placement string  `json:"placement"`
	Nodes     int     `json:"nodes"`
	FirstNode int     `json:"first_node"`
	Status    string  `json:"status"` // done | failed
	Backfill  bool    `json:"backfilled"`
	SubmitS   float64 `json:"submit_s"`
	StartS    float64 `json:"start_s"`
	EndS      float64 `json:"end_s"`
	WaitS     float64 `json:"wait_s"`
	DurationS float64 `json:"duration_s"` // predicted solve duration per attempt
	AvgPowerW float64 `json:"avg_power_w"`
	EnergyJ   float64 `json:"energy_j"`        // total charged, incl. crashed attempts
	WastedJ   float64 `json:"wasted_energy_j"` // crashed-attempt share
	Attempts  int     `json:"attempts"`
	Crashes   int     `json:"crashes"`
}

// TenantUsage is the per-tenant accounting roll-up.
type TenantUsage struct {
	Tenant      string  `json:"tenant"`
	Jobs        int     `json:"jobs"`
	EnergyJ     float64 `json:"energy_j"`
	NodeSeconds float64 `json:"node_seconds"`
	MeanWaitS   float64 `json:"mean_wait_s"`
}

// PowerPoint is one step of the instantaneous fleet power series.
type PowerPoint struct {
	TimeS     float64 `json:"time_s"`
	PowerW    float64 `json:"power_w"`
	NodesBusy int     `json:"nodes_busy"`
	Queued    int     `json:"queued"`
}

// Report is the fleet execution record. Marshal renders it canonically;
// ScheduleDigest content-addresses the per-job schedule, so two runs
// agree iff their digests agree.
type Report struct {
	SchemaVersion  int           `json:"schema_version"`
	Policy         string        `json:"policy"`
	Seed           int64         `json:"seed"`
	Nodes          int           `json:"nodes"`
	PowerBudgetW   float64       `json:"power_budget_w"` // 0 = unlimited
	MTBFS          float64       `json:"mtbf_s"`         // 0 = fault-free
	MakespanS      float64       `json:"makespan_s"`
	TotalEnergyJ   float64       `json:"total_energy_j"`
	WastedEnergyJ  float64       `json:"wasted_energy_j"`
	PeakPowerW     float64       `json:"peak_power_w"`
	UtilizationPct float64       `json:"utilization_pct"`
	StrandedWh     float64       `json:"stranded_power_wh"`
	MeanWaitS      float64       `json:"mean_wait_s"`
	MaxWaitS       float64       `json:"max_wait_s"`
	Backfills      int           `json:"backfills"`
	Crashes        int           `json:"crashes"`
	Requeues       int           `json:"requeues"`
	Tenants        []TenantUsage `json:"tenants"`
	Jobs           []JobOutcome  `json:"jobs"`
	PowerSeries    []PowerPoint  `json:"power_series"`
	ScheduleDigest string        `json:"schedule_digest"`
}

// Marshal renders the canonical report body (the exact bytes golden
// tests and artifact diffs pin).
func (r *Report) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// outcome assembles the report, digest and timeline.
func (s *sim) outcome(w Workload) (*Outcome, error) {
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Policy:        s.cfg.Policy.String(),
		Seed:          w.Seed,
		Nodes:         s.cfg.Nodes,
		PowerBudgetW:  s.cfg.PowerBudgetW,
		MTBFS:         s.cfg.MTBF,
		PeakPowerW:    s.peakPowerW,
		Backfills:     s.backfills,
		PowerSeries:   s.series,
	}
	tenants := map[string]*TenantUsage{}
	for _, j := range s.jobs {
		status := "done"
		if j.failed {
			status = "failed"
		}
		out := JobOutcome{
			ID: j.idx + 1, Name: j.spec.Name, Tenant: j.spec.Tenant,
			Priority: j.spec.Priority, N: j.spec.N, Ranks: j.spec.Ranks,
			Algorithm: j.cand.alg.String(), Placement: j.cand.pl.String(),
			Nodes: j.cand.nodes, Status: status,
			Backfill: j.backfill, SubmitS: j.spec.SubmitS,
			StartS: j.startS, EndS: j.endS, WaitS: j.startS - j.spec.SubmitS,
			DurationS: j.cand.durationS, AvgPowerW: j.cand.powerW,
			EnergyJ: j.energyJ, WastedJ: j.wastedJ,
			Attempts: j.attempts, Crashes: j.crashes,
		}
		rep.Jobs = append(rep.Jobs, out)
		rep.TotalEnergyJ += j.energyJ
		rep.WastedEnergyJ += j.wastedJ
		rep.Crashes += j.crashes
		if j.crashes > 0 && !j.failed {
			rep.Requeues += j.crashes
		} else if j.failed && j.crashes > 0 {
			rep.Requeues += j.crashes - 1
		}
		if j.endS > rep.MakespanS {
			rep.MakespanS = j.endS
		}
		rep.MeanWaitS += out.WaitS
		if out.WaitS > rep.MaxWaitS {
			rep.MaxWaitS = out.WaitS
		}
		tu := tenants[j.spec.Tenant]
		if tu == nil {
			tu = &TenantUsage{Tenant: j.spec.Tenant}
			tenants[j.spec.Tenant] = tu
		}
		tu.Jobs++
		tu.EnergyJ += j.energyJ
		tu.MeanWaitS += out.WaitS
	}
	rep.MeanWaitS /= float64(len(s.jobs))
	// Per-attempt node-seconds, charged per tenant in attempt order.
	for _, a := range s.attempts {
		j := s.jobs[a.jobIdx]
		tenants[j.spec.Tenant].NodeSeconds += float64(float64(len(a.nodes)) * (a.endS - a.startS))
	}
	names := make([]string, 0, len(tenants))
	for name := range tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tu := tenants[name]
		tu.MeanWaitS /= float64(tu.Jobs)
		rep.Tenants = append(rep.Tenants, *tu)
	}
	if rep.MakespanS > 0 {
		rep.UtilizationPct = 100 * s.nodeSeconds / (float64(s.cfg.Nodes) * rep.MakespanS)
	}
	rep.StrandedWh = s.strandedJs / 3600

	// Full node-ID lists live in the timeline; the job table carries the
	// first node of the last (successful, for done jobs) block grant.
	for _, a := range s.attempts {
		rep.Jobs[a.jobIdx].FirstNode = a.nodes[0]
	}

	// The digest content-addresses the schedule: the canonical JSON of
	// the per-job outcomes, hashed the same way the experiment store
	// keys its records.
	digest, _, err := store.KeyFor(rep.Jobs)
	if err != nil {
		return nil, fmt.Errorf("sched: digest: %w", err)
	}
	rep.ScheduleDigest = digest

	o := &Outcome{Report: rep}
	o.StoreComputed, o.StoreHits = s.pred.ev.Counts()
	if s.cfg.Trace {
		o.Trace = s.buildTrace(digest)
	}
	return o, nil
}

// buildTrace renders the fleet timeline: one Perfetto track per node,
// one span per (attempt × node). The trace ID derives from the schedule
// digest, so identical schedules export identical traces.
func (s *sim) buildTrace(digest string) *telemetry.Trace {
	tr := telemetry.NewTrace(digest[:32])
	recs := make([]attemptRec, len(s.attempts))
	copy(recs, s.attempts)
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].startS != recs[j].startS {
			return recs[i].startS < recs[j].startS
		}
		if recs[i].jobIdx != recs[j].jobIdx {
			return recs[i].jobIdx < recs[j].jobIdx
		}
		return recs[i].attempt < recs[j].attempt
	})
	for _, a := range recs {
		j := s.jobs[a.jobIdx]
		name := j.spec.Name
		if a.attempt > 1 {
			name = fmt.Sprintf("%s (retry %d)", j.spec.Name, a.attempt-1)
		}
		for _, node := range a.nodes {
			tr.AddVirtualSpan(fmt.Sprintf("node-%04d", node), name, 0, a.startS, a.endS,
				telemetry.Attr{Key: "tenant", Value: j.spec.Tenant},
				telemetry.Attr{Key: "algorithm", Value: j.cand.alg.String()},
				telemetry.Attr{Key: "placement", Value: j.cand.pl.String()},
				telemetry.Attr{Key: "crashed", Value: a.crashed},
			)
		}
	}
	return tr
}
