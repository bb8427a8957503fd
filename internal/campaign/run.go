package campaign

import (
	"errors"
	"fmt"
	"sync"
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
	// *compute* (store hits are free). When the budget is spent the run
	// stops with ErrInterrupted — computed work is already persisted.
	// Engine stages that evaluate several cells in one step (the
	// resilience sweep) check the budget between cells and may finish the
	// cell in flight, so a run can land slightly over budget.
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

// Context is the per-run execution context stages evaluate cells
// through: it serves store hits, gates computes on the cell budget, and
// counts both. Methods are safe for concurrent use by one stage's
// workers.
type Context struct {
	st     *store.Store
	runner *grid.Runner

	mu       sync.Mutex
	maxCells int
	computed int
	hits     int
}

// spend takes n cells from the compute budget; it fails with
// ErrInterrupted once the budget is exhausted.
func (rc *Context) spend(n int) error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.maxCells > 0 && rc.computed >= rc.maxCells {
		return ErrInterrupted
	}
	rc.computed += n
	return nil
}

func (rc *Context) addHits(n int) {
	rc.mu.Lock()
	rc.hits += n
	rc.mu.Unlock()
}

func (rc *Context) counts() (computed, hits int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.computed, rc.hits
}

// admit takes one cell from the compute budget — what the runner asks
// between a store miss and the compute.
func (rc *Context) admit() error { return rc.spend(1) }

// evalCell evaluates one cell of any kind through the store: hit → free,
// miss → budget-gated compute + append.
func evalCell[M any, C core.Cell[M]](rc *Context, c C) error {
	_, computed, err := core.Run(rc.st, c, rc.admit)
	if err == nil && !computed {
		rc.addHits(1)
	}
	return err
}

// ResilienceSweep evaluates the resilience artifact's MTBF sweep through
// the store. The sweep's cells are interdependent (the probe's baseline
// anchors the MTBF points), so budget gating is per entry: once the
// budget is spent the next call fails, and cells computed by a partial
// sweep are already persisted for the resumed run.
func (rc *Context) ResilienceSweep(mtbf float64, seed int64) error {
	if err := rc.spend(0); err != nil {
		return err
	}
	_, computed, err := core.ResilienceSweepStored(mtbf, seed, rc.st)
	if computed > 0 {
		if serr := rc.spend(computed); serr != nil && err == nil {
			err = serr
		}
	}
	// Sweep points served entirely from the store are hits: the probe
	// plus five MTBF points × two solvers for the full sweep, or two
	// runs for a single pinned MTBF.
	runs := 11
	if mtbf > 0 {
		runs = 2
	}
	if hits := runs - computed; hits > 0 && err == nil {
		rc.addHits(hits)
	}
	return err
}

// Run executes the campaign against the store: every stage in order,
// cells memoized, budget enforced. It returns the summary even on
// interruption (with Interrupted set and ErrInterrupted as the error).
func Run(c Campaign, st *store.Store, opt RunOptions) (Summary, error) {
	if st == nil {
		return Summary{}, fmt.Errorf("campaign: a run requires an open store")
	}
	sum := Summary{Campaign: c.Name}
	rc := &Context{st: st, runner: grid.New(opt.Workers), maxCells: opt.MaxCells}
	start := time.Now()
	var runErr error
	for _, stage := range c.Stages {
		beforeComputed, beforeHits := rc.counts()
		err := stage.run(rc)
		computed, hits := rc.counts()
		sum.Stages = append(sum.Stages, StageSummary{
			Name:     stage.Name,
			Cells:    stage.Cells,
			Computed: computed - beforeComputed,
			Hits:     hits - beforeHits,
		})
		if err != nil {
			if errors.Is(err, ErrInterrupted) {
				sum.Interrupted = true
				runErr = ErrInterrupted
			} else {
				runErr = fmt.Errorf("campaign: stage %s: %w", stage.Name, err)
			}
			break
		}
	}
	sum.RunWallS = time.Since(start).Seconds()
	sum.CellsTotal = c.Cells()
	sum.ComputedTotal, sum.HitsTotal = rc.counts()
	sum.StoreRecords = st.Len()
	sum.StoreDigest = st.Digest()
	return sum, runErr
}
