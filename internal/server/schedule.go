package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/sched"
)

// maxScheduleJobs bounds the jobs of one fleet-scheduling request: twice
// the 240-job workload the fleet CI step compares, while keeping one
// simulation comfortably inside the sweep SLO's latency bound. The fleet
// size has its own bound, sched.MaxNodes.
const maxScheduleJobs = 512

// ScheduleRequest is the canonicalized form of POST /v1/schedule: one
// deterministic fleet simulation. Jobs are either listed explicitly or
// generated (synthetic_jobs > 0); the canonical form always carries the
// explicit list, so the two spellings of the same workload share one
// cache entry.
type ScheduleRequest struct {
	Workload sched.Workload
	Nodes    int
	BudgetW  float64
	MTBF     float64
	FaultSd  int64
	Policy   sched.Policy
}

func (r ScheduleRequest) cacheKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v1/schedule|seed=%d|nodes=%d|budget=%g|mtbf=%g|fseed=%d|policy=%s",
		r.Workload.Seed, r.Nodes, r.BudgetW, r.MTBF, r.FaultSd, r.Policy)
	for _, j := range r.Workload.Jobs {
		fmt.Fprintf(&b, "|%s,%s,%g,%d,%d,%d,%s,%s,%s",
			j.Name, j.Tenant, j.SubmitS, j.Priority, j.N, j.Ranks, j.Algorithm, j.Placement, j.Objective)
	}
	return b.String()
}

// scheduleWire is the JSON wire form of POST /v1/schedule. Its counts are
// int64 on every word size, so that a count past sched.MaxNodes or
// maxScheduleJobs gets the error that names the bound, where int is 32
// bits too, and is converted only once it is known to fit.
type scheduleWire struct {
	Seed         int64           `json:"seed"`
	Nodes        int64           `json:"nodes"`
	PowerBudgetW float64         `json:"power_budget_w"`
	MTBFS        float64         `json:"mtbf_s"`
	FaultSeed    int64           `json:"fault_seed"`
	Policy       string          `json:"policy"`
	Jobs         []sched.JobSpec `json:"jobs"`
	// SyntheticJobs generates that many jobs from the seed instead of an
	// explicit list (mutually exclusive with jobs).
	SyntheticJobs int64 `json:"synthetic_jobs"`
}

// ParseScheduleRequest decodes and canonicalizes POST /v1/schedule.
func ParseScheduleRequest(r *http.Request) (ScheduleRequest, error) {
	var req ScheduleRequest
	var wire scheduleWire
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxSweepBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return req, fmt.Errorf("request body: %w", err)
	}
	switch {
	case wire.SyntheticJobs > 0 && len(wire.Jobs) > 0:
		return req, errors.New("synthetic_jobs and explicit jobs are mutually exclusive")
	case wire.SyntheticJobs > maxScheduleJobs:
		return req, fmt.Errorf("synthetic_jobs: %d exceeds the per-request limit %d", wire.SyntheticJobs, maxScheduleJobs)
	case len(wire.Jobs) > maxScheduleJobs:
		return req, fmt.Errorf("jobs: %d exceeds the per-request limit %d", len(wire.Jobs), maxScheduleJobs)
	case wire.SyntheticJobs > 0:
		req.Workload = sched.Synthetic(wire.Seed, int(wire.SyntheticJobs))
	case len(wire.Jobs) == 0:
		return req, errors.New(`request names no work: set "jobs" or "synthetic_jobs"`)
	default:
		req.Workload = sched.Workload{Seed: wire.Seed, Jobs: wire.Jobs}
	}
	if wire.Nodes < 0 || wire.Nodes > sched.MaxNodes {
		return req, fmt.Errorf("nodes: must be in 0..%d, got %d", sched.MaxNodes, wire.Nodes)
	}
	req.Nodes = int(wire.Nodes)
	if wire.PowerBudgetW < 0 {
		return req, fmt.Errorf("power_budget_w: must be non-negative, got %g", wire.PowerBudgetW)
	}
	req.BudgetW = wire.PowerBudgetW
	if wire.MTBFS < 0 {
		return req, fmt.Errorf("mtbf_s: must be non-negative, got %g", wire.MTBFS)
	}
	req.MTBF = wire.MTBFS
	req.FaultSd = wire.FaultSeed
	if wire.Policy != "" {
		var err error
		if req.Policy, err = sched.ParsePolicy(wire.Policy); err != nil {
			return req, err
		}
	}
	return req, nil
}

// computeSchedule runs one fleet simulation on the server's worker pool.
// The simulated fleet prices its candidates through the server's
// experiment store — the scheduler's placement policy IS the advisor,
// served batch-side.
func (s *Server) computeSchedule(ctx context.Context, req ScheduleRequest, rec *requestRecord) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t := rec.now()
	o, err := sched.Simulate(sched.Config{
		Nodes:        req.Nodes,
		PowerBudgetW: req.BudgetW,
		Policy:       req.Policy,
		MTBF:         req.MTBF,
		FaultSeed:    req.FaultSd,
		Workers:      s.cfg.SweepWorkers,
		Store:        s.cfg.Store,
	}, req.Workload)
	rec.end(stageSimulate, t)
	if err != nil {
		return nil, err
	}
	s.countStoreCells(o.StoreComputed, o.StoreHits)
	rep := o.Report
	if rec != nil {
		rec.jobs, rec.makespanS, rec.scheduleDigest = len(rep.Jobs), rep.MakespanS, rep.ScheduleDigest
	}
	return marshalStage(rec, rep)
}
