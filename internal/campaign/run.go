package campaign

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/store"
)

// ErrInterrupted reports that a run stopped because its cell budget ran
// out — the deterministic stand-in for a killed process in resume tests
// and drills. Everything computed before the interruption is already in
// the store; re-running the campaign resumes with zero lost work.
var ErrInterrupted = errors.New("campaign: interrupted by cell budget")

// RunOptions configures one campaign run.
type RunOptions struct {
	// Workers bounds concurrent cell evaluations (0 = GOMAXPROCS).
	Workers int
	// MaxCells, when positive, budgets how many cells this run may
	// *compute* (store hits are free). Every compute asks the budget
	// first, an engine run of the resilience sweep like an analytic cell,
	// so a run computes at most MaxCells cells; once they are spent it
	// stops with ErrInterrupted, and what it computed is already persisted.
	MaxCells int
}

// StageSummary reports one stage's cell accounting.
type StageSummary struct {
	Name     string `json:"name"`
	Cells    int    `json:"cells"`
	Computed int    `json:"computed"`
	Hits     int    `json:"hits"`
}

// Summary is a campaign run's machine-readable outcome — the artifact
// CI asserts warm-run behaviour on (computed_total == 0, hits_total ==
// cells_total, one store_digest cold and warm).
type Summary struct {
	Campaign      string         `json:"campaign"`
	Stages        []StageSummary `json:"stages"`
	CellsTotal    int            `json:"cells_total"`
	ComputedTotal int            `json:"computed_total"`
	HitsTotal     int            `json:"hits_total"`
	// RunWallS covers the compute/lookup phase only (not store open or
	// artifact emission): the quantity the cold-vs-warm speedup is
	// defined over.
	RunWallS     float64 `json:"run_wall_s"`
	StoreRecords int     `json:"store_records"`
	StoreDigest  string  `json:"store_digest"`
	Interrupted  bool    `json:"interrupted,omitempty"`
}

// budget admits max computes and refuses every one after them: the
// campaign's Admit.
type budget struct {
	max   int64
	spent atomic.Int64
}

func (b *budget) admit() error {
	if b.spent.Add(1) > b.max {
		return ErrInterrupted
	}
	return nil
}

// Run executes the campaign against the store: every stage in order,
// cells memoized, budget enforced. It returns the summary even on
// interruption (with Interrupted set and ErrInterrupted as the error).
func Run(c Campaign, st *store.Store, opt RunOptions) (Summary, error) {
	if st == nil {
		return Summary{}, fmt.Errorf("campaign: a run requires an open store")
	}
	sum := Summary{Campaign: c.Name}
	ev := &core.Evaluator{Store: st, Runner: grid.New(opt.Workers)}
	if opt.MaxCells > 0 {
		ev.Admit = (&budget{max: int64(opt.MaxCells)}).admit
	}
	start := time.Now()
	var runErr error
	for _, s := range c.Stages {
		beforeComputed, beforeHits := ev.Counts()
		err := s.run(ev)
		computed, hits := ev.Counts()
		sum.Stages = append(sum.Stages, StageSummary{
			Name:     s.Name,
			Cells:    s.Cells,
			Computed: computed - beforeComputed,
			Hits:     hits - beforeHits,
		})
		if err != nil {
			if errors.Is(err, ErrInterrupted) {
				sum.Interrupted = true
				runErr = ErrInterrupted
			} else {
				runErr = fmt.Errorf("campaign: stage %s: %w", s.Name, err)
			}
			break
		}
	}
	sum.RunWallS = time.Since(start).Seconds()
	sum.CellsTotal = c.Cells()
	sum.ComputedTotal, sum.HitsTotal = ev.Counts()
	sum.StoreRecords = st.Len()
	sum.StoreDigest = st.Digest()
	return sum, runErr
}
