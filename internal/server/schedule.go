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

// maxScheduleJobs bounds one fleet-scheduling request: enough for the
// BENCH_fleet campaign shape (hundreds of jobs) while keeping one
// simulation comfortably inside the sweep SLO's latency bound.
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

// scheduleWire is the JSON wire form of POST /v1/schedule.
type scheduleWire struct {
	Seed         int64           `json:"seed"`
	Nodes        int             `json:"nodes"`
	PowerBudgetW float64         `json:"power_budget_w"`
	MTBFS        float64         `json:"mtbf_s"`
	FaultSeed    int64           `json:"fault_seed"`
	Policy       string          `json:"policy"`
	Jobs         []sched.JobSpec `json:"jobs"`
	// SyntheticJobs generates that many jobs from the seed instead of an
	// explicit list (mutually exclusive with jobs).
	SyntheticJobs int `json:"synthetic_jobs"`
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
		req.Workload = sched.Synthetic(wire.Seed, wire.SyntheticJobs)
	case len(wire.Jobs) == 0:
		return req, errors.New(`request names no work: set "jobs" or "synthetic_jobs"`)
	default:
		req.Workload = sched.Workload{Seed: wire.Seed, Jobs: wire.Jobs}
	}
	if wire.Nodes < 0 {
		return req, fmt.Errorf("nodes: must be non-negative, got %d", wire.Nodes)
	}
	req.Nodes = wire.Nodes
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
// The simulated fleet reuses the server's surrogate and experiment store
// — the scheduler's placement policy IS the advisor, served batch-side.
func (s *Server) computeSchedule(ctx context.Context, req ScheduleRequest) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := requestTraceFrom(ctx).stage("simulate")
	o, err := sched.Simulate(sched.Config{
		Nodes:        req.Nodes,
		PowerBudgetW: req.BudgetW,
		Policy:       req.Policy,
		MTBF:         req.MTBF,
		FaultSeed:    req.FaultSd,
		Workers:      s.cfg.SweepWorkers,
		Surrogate:    s.cfg.Surrogate,
		Store:        s.cfg.Store,
	}, req.Workload)
	if err != nil {
		sp.End()
		return nil, err
	}
	s.countStoreCells(o.StoreComputed, o.StoreHits)
	rep := o.Report
	sp.SetAttr("jobs", len(rep.Jobs))
	sp.SetAttr("makespan_s", rep.MakespanS)
	sp.SetAttr("digest", rep.ScheduleDigest)
	sp.End()
	return marshalStage(ctx, rep)
}
