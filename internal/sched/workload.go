package sched

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
)

// maxOrder bounds accepted matrix orders, matching the serving layer.
const maxOrder = 1 << 20

// JobSpec is one submitted job: a linear-system solve plus batch
// metadata. Algorithm and Placement default to "auto" (the scheduler's
// placement policy decides per the job's objective); fixing either pins
// that axis and the policy optimises over the rest.
type JobSpec struct {
	Name     string  `json:"name"`
	Tenant   string  `json:"tenant,omitempty"`
	SubmitS  float64 `json:"submit_s"`
	Priority int     `json:"priority,omitempty"`
	// N is the matrix order, Ranks the MPI world size.
	N     int `json:"n"`
	Ranks int `json:"ranks"`
	// Algorithm: "", "auto", "IMe" or "ScaLAPACK".
	Algorithm string `json:"algorithm,omitempty"`
	// Placement: "", "auto", or a cluster placement name.
	Placement string `json:"placement,omitempty"`
	// Objective: "", or an advisor objective (min-energy, min-time,
	// max-gflops-per-watt). Empty means min-energy under the
	// energy-aware policy; the FCFS baseline ignores objectives.
	Objective string `json:"objective,omitempty"`
}

// Workload is a replayable job trace: the seed drives every
// pseudo-random decision (fault schedules), so one workload value is one
// deterministic fleet execution.
type Workload struct {
	Seed int64     `json:"seed"`
	Jobs []JobSpec `json:"jobs"`
}

// ParseWorkload decodes a workload file (strict JSON).
func ParseWorkload(r io.Reader) (Workload, error) {
	var w Workload
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return w, fmt.Errorf("sched: workload: %w", err)
	}
	return w, nil
}

// parsedJob is a validated JobSpec with its axes resolved.
type parsedJob struct {
	spec JobSpec
	// autoAlg/autoPl report whether the axis is free for the policy.
	autoAlg bool
	alg     perfmodel.Algorithm
	autoPl  bool
	pl      cluster.Placement
	obj     core.Objective
}

// parseJob validates one spec and resolves its axes. Defaults: tenant
// "default", name "job-<i>", objective min-energy.
func parseJob(i int, spec JobSpec) (parsedJob, error) {
	p := parsedJob{spec: spec}
	if p.spec.Name == "" {
		p.spec.Name = fmt.Sprintf("job-%03d", i+1)
	}
	if p.spec.Tenant == "" {
		p.spec.Tenant = "default"
	}
	if spec.N <= 0 || spec.N > maxOrder {
		return p, fmt.Errorf("sched: job %s: n: want 1..%d, got %d", p.spec.Name, maxOrder, spec.N)
	}
	if spec.Ranks <= 0 {
		return p, fmt.Errorf("sched: job %s: ranks: must be positive, got %d", p.spec.Name, spec.Ranks)
	}
	if spec.SubmitS < 0 || math.IsNaN(spec.SubmitS) || math.IsInf(spec.SubmitS, 0) {
		return p, fmt.Errorf("sched: job %s: submit_s: must be finite and non-negative", p.spec.Name)
	}
	switch spec.Algorithm {
	case "", "auto":
		p.autoAlg = true
	default:
		alg, err := perfmodel.ParseAlgorithm(spec.Algorithm)
		if err != nil {
			return p, fmt.Errorf("sched: job %s: %w", p.spec.Name, err)
		}
		p.alg = alg
	}
	switch spec.Placement {
	case "", "auto":
		p.autoPl = true
	default:
		pl, err := cluster.ParsePlacement(spec.Placement)
		if err != nil {
			return p, fmt.Errorf("sched: job %s: %w", p.spec.Name, err)
		}
		p.pl = pl
	}
	p.obj = core.MinEnergy
	if spec.Objective != "" {
		obj, err := core.ParseObjective(spec.Objective)
		if err != nil {
			return p, fmt.Errorf("sched: job %s: %w", p.spec.Name, err)
		}
		p.obj = obj
	}
	return p, nil
}

// splitmix64 is the deterministic generator behind the synthetic
// workload (the same finaliser the fault plane uses).
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// u01 returns a uniform draw in [0, 1). The compiler turns the division
// into a product, so it is rounded on its own: a caller's 1-u01() cannot
// fuse with it.
func (s *splitmix64) u01() float64 {
	return float64(float64(s.next()>>11) / (1 << 53))
}

func (s *splitmix64) intn(n int) int {
	return int(s.next() % uint64(n))
}

// syntheticTenants are the multi-tenant mix of the generated trace.
var syntheticTenants = []string{"astro", "cfd", "materials", "ml"}

// Synthetic generates a deterministic multi-tenant workload over the
// paper grid: matrix orders from §5.1, the three paper rank counts,
// auto algorithm/placement, Poisson arrivals. Same (seed, jobs) ⇒ same
// workload, byte for byte.
func Synthetic(seed int64, jobs int) Workload {
	rng := splitmix64(seed)
	dims := cluster.PaperMatrixDims()
	rankCounts := cluster.PaperRankCounts()
	// Mostly green tenants with some latency-sensitive ones: min-time
	// jobs take the same shape the FCFS baseline would, so the fleet
	// energy saving comes from the min-energy majority.
	objectives := []string{"min-energy", "min-energy", "min-energy", "min-time"}
	const meanInterarrivalS = 4.0
	w := Workload{Seed: seed, Jobs: make([]JobSpec, 0, jobs)}
	t := 0.0
	for i := 0; i < jobs; i++ {
		// Exponential inter-arrival (Poisson process).
		t += float64(-math.Log(1-rng.u01()) * meanInterarrivalS)
		spec := JobSpec{
			Name:      fmt.Sprintf("job-%03d", i+1),
			Tenant:    syntheticTenants[rng.intn(len(syntheticTenants))],
			SubmitS:   t,
			Priority:  rng.intn(3),
			N:         dims[rng.intn(len(dims))],
			Ranks:     rankCounts[rng.intn(len(rankCounts))],
			Algorithm: "auto",
			Placement: "auto",
			Objective: objectives[rng.intn(len(objectives))],
		}
		w.Jobs = append(w.Jobs, spec)
	}
	return w
}

// jobFaultSeed derives the per-job fault-plane seed from the workload
// seed: splitmix-mixed so neighbouring jobs get unrelated schedules.
func jobFaultSeed(seed int64, jobIdx int) int64 {
	s := splitmix64(uint64(seed) ^ uint64(jobIdx+1)*0xA3EC647659359ACD)
	return int64(s.next() >> 1)
}
