package sched

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/ime"
	"repro/internal/perfmodel"
	"repro/internal/scalapack"
	"repro/internal/store"
)

// candidate is one feasible (algorithm, placement) shape for a job with
// its predicted cost. Power is the attempt's average draw — the quantity
// the budget admission controller reasons in.
type candidate struct {
	alg       perfmodel.Algorithm
	pl        cluster.Placement
	n         int
	nodes     int
	durationS float64
	energyJ   float64
	powerW    float64
}

// predictor prices candidates with the exact analytic model through one
// evaluator: memoized in the experiment store when there is one
// (restarted fleets resume prediction for free and byte-identically; a
// nil store is plain compute), and each distinct schedule replayed once
// per fleet run, however many jobs share it.
type predictor struct {
	ev  *core.Evaluator
	prm perfmodel.Params
}

func newPredictor(st *store.Store) *predictor {
	return &predictor{ev: &core.Evaluator{Store: st}, prm: perfmodel.Params{Overlap: true}.Normalized()}
}

// predict models one shape. ok=false means the shape is infeasible for
// this algorithm (e.g. an IMe rank count that is not a perfect square).
func (p *predictor) predict(alg perfmodel.Algorithm, n, ranks int, pl cluster.Placement) (candidate, bool) {
	cfg, err := cluster.NewConfig(ranks, pl, cluster.MarconiA3())
	if err != nil {
		return candidate{}, false
	}
	m, err := p.ev.Analytic(core.Experiment{Algorithm: alg, N: n, Ranks: ranks, Placement: pl}, p.prm)
	if err != nil {
		return candidate{}, false
	}
	return candidate{
		alg: alg, pl: pl, n: n, nodes: cfg.Nodes,
		durationS: m.DurationS, energyJ: m.TotalJ, powerW: m.AvgPowerW(),
	}, true
}

// candidates enumerates the feasible shapes of one job in deterministic
// order (algorithms, then placements, in their canonical listing order),
// dropping shapes the fleet cannot host or the budget can never admit.
func (p *predictor) candidates(j parsedJob, fleetNodes int, budgetW float64) []candidate {
	algs := perfmodel.Algorithms()
	if !j.autoAlg {
		algs = []perfmodel.Algorithm{j.alg}
	}
	pls := cluster.Placements()
	if !j.autoPl {
		pls = []cluster.Placement{j.pl}
	}
	var out []candidate
	for _, alg := range algs {
		for _, pl := range pls {
			c, ok := p.predict(alg, j.spec.N, j.spec.Ranks, pl)
			if !ok || c.nodes > fleetNodes {
				continue
			}
			if budgetW > 0 && c.powerW > budgetW {
				continue // could never be admitted, even on an idle fleet
			}
			out = append(out, c)
		}
	}
	return out
}

// predictAll resolves every job's candidate set on the worker pool.
// grid.Map returns results in index order, so the table — and therefore
// every downstream scheduling decision — is identical at any -j.
func predictAll(r *grid.Runner, p *predictor, jobs []parsedJob, fleetNodes int, budgetW float64) ([][]candidate, error) {
	return grid.Map(r, len(jobs), func(i int) ([]candidate, error) {
		cands := p.candidates(jobs[i], fleetNodes, budgetW)
		if len(cands) == 0 {
			return nil, fmt.Errorf("sched: job %s: no feasible shape (n=%d ranks=%d alg=%s pl=%s) on %d nodes, budget %g W",
				jobs[i].spec.Name, jobs[i].spec.N, jobs[i].spec.Ranks,
				jobs[i].spec.Algorithm, jobs[i].spec.Placement, fleetNodes, budgetW)
		}
		return cands, nil
	})
}

// algFlops is the solver's arithmetic work — the numerator of the
// Green500-style efficiency objective.
func algFlops(alg perfmodel.Algorithm, n int) float64 {
	if alg == perfmodel.IMe {
		return ime.TotalFlops(n)
	}
	return scalapack.TotalFlops(n)
}

// pick selects the job's shape. The energy-aware policy optimises the
// job's objective; the FCFS baseline is energy-oblivious and always
// takes the fastest shape. Ties break toward lower energy, then lower
// duration, then enumeration order — all exact comparisons, so the
// choice is deterministic.
func pick(cands []candidate, obj core.Objective, baseline bool) candidate {
	if baseline {
		obj = core.MinTime
	}
	best := 0
	for i := 1; i < len(cands); i++ {
		if candidateLess(cands[i], cands[best], obj) {
			best = i
		}
	}
	return cands[best]
}

// candidateLess reports whether a beats b under the objective.
func candidateLess(a, b candidate, obj core.Objective) bool {
	switch obj {
	case core.MinTime:
		if a.durationS != b.durationS {
			return a.durationS < b.durationS
		}
		return a.energyJ < b.energyJ
	case core.MaxEfficiency:
		// flops per joule, higher is better: n is identical within one
		// job's candidate set but the algorithms differ in arithmetic
		// work (IMe does ~3x the flops of the LU factorisation).
		fa := algFlops(a.alg, a.n) / a.energyJ
		fb := algFlops(b.alg, b.n) / b.energyJ
		if fa != fb {
			return fa > fb
		}
		return a.energyJ < b.energyJ
	default: // MinEnergy
		if a.energyJ != b.energyJ {
			return a.energyJ < b.energyJ
		}
		return a.durationS < b.durationS
	}
}
