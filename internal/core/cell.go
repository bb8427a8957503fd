package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/grid"
	"repro/internal/rapl"
	"repro/internal/store"
)

// The runner: the one place that says how an evaluation is memoized in
// the content-addressed experiment store. Every engine reaches the store
// through Lookup and Run below; what differs per engine is a small Cell
// descriptor.

// Cell describes one memoizable evaluation: the record kind it is stored
// under, the canonical identity that addresses it, how to compute it, and
// how its result M maps to and from the persisted payload R. The
// descriptors are this package's — AnalyticCell, MonitoredCell,
// SparseAnalyticCell and the resilience cell — and they are plain values,
// so an evaluation costs no allocation beyond the identity it marshals.
type Cell[M, R any] interface {
	// kind is the store record kind.
	kind() string
	// identity returns the canonical identity value: what "the same
	// experiment" means persistently, defaults resolved and fields the
	// engine ignores left out so spelling variants collapse to one key.
	identity() any
	// compute runs the engine.
	compute() (M, error)
	// payload converts a computed result to its persisted form; restore
	// inverts it, re-deriving whatever the cell itself already carries.
	// Every persisted number is a float64 that JSON round-trips bit for
	// bit, so a restored result formats to the same bytes as a computed one.
	payload(M) R
	restore(R) (M, error)
}

// fetch is get → decode for a key the caller has already derived.
func fetch[M, R any, C Cell[M, R]](st *store.Store, c C, key string) (m M, ok bool, err error) {
	rec, ok, err := st.Get(key)
	if err != nil || !ok {
		return m, false, err
	}
	if rec.Kind != c.kind() {
		return m, false, fmt.Errorf("core: record %.12s… has kind %q, want %q", rec.Key, rec.Kind, c.kind())
	}
	var r R
	if err := json.Unmarshal(rec.Result, &r); err != nil {
		return m, false, fmt.Errorf("core: decode %s result: %w", c.kind(), err)
	}
	m, err = c.restore(r)
	return m, err == nil, err
}

// Lookup serves the cell from the store without ever computing; ok is
// false on a miss or a nil store. Strict from-store artifact emission and
// cache warming build on it.
func Lookup[M, R any, C Cell[M, R]](st *store.Store, c C) (m M, ok bool, err error) {
	if st == nil {
		return m, false, nil
	}
	key, _, err := store.KeyFor(c.identity())
	if err != nil {
		return m, false, err
	}
	return fetch(st, c, key)
}

// Run evaluates the cell through the store: a stored result is restored
// and returned with computed false; a miss computes and appends under the
// key and the exact identity bytes the lookup derived, so the identity is
// marshalled once per evaluation. admit, when non-nil, is asked after the
// miss and before the compute (the campaign's cell budget); its error
// ends the evaluation with nothing computed. A nil store is plain compute
// — the identity is never built — and that is the only no-store path
// there is.
func Run[M, R any, C Cell[M, R]](st *store.Store, c C, admit func() error) (m M, computed bool, err error) {
	var key string
	var identity []byte
	if st != nil {
		if key, identity, err = store.KeyFor(c.identity()); err != nil {
			return m, false, err
		}
		var ok bool
		if m, ok, err = fetch(st, c, key); err != nil || ok {
			return m, false, err
		}
	}
	if admit != nil {
		if err := admit(); err != nil {
			return m, false, err
		}
	}
	if m, err = c.compute(); err != nil || st == nil {
		return m, true, err
	}
	result, err := json.Marshal(c.payload(m))
	if err != nil {
		return m, true, fmt.Errorf("core: encode %s result: %w", c.kind(), err)
	}
	_, err = st.Append(store.Record{Key: key, Kind: c.kind(), Identity: identity, Result: result})
	return m, true, err
}

// runBoth evaluates the two cells an advisor verdict ranks; computed
// counts the evaluations that ran (0, 1 or 2).
func runBoth[M, R any, C Cell[M, R]](st *store.Store, a, b C) (ma, mb M, computed int, err error) {
	ma, ran, err := Run(st, a, nil)
	if err != nil {
		return ma, mb, computed, err
	}
	if ran {
		computed++
	}
	mb, ran, err = Run(st, b, nil)
	if ran && err == nil {
		computed++
	}
	return ma, mb, computed, err
}

// runGrid evaluates one cell per key on the runner's workers and returns
// the results by key; computed counts the cells that ran their engine (0
// on a fully warm store). Cells are independent, and a store hit restores
// exactly what the compute path produces, so the map is identical for
// every (store, worker budget) combination — which is what keeps figure
// artifacts byte-identical across serial, parallel, cold and warm runs.
func runGrid[K comparable, M, R any, C Cell[M, R]](r *grid.Runner, st *store.Store, keys []K, cell func(K) C) (map[K]M, int, error) {
	type outcome struct {
		m        M
		computed bool
	}
	outcomes, err := grid.Map(r, len(keys), func(i int) (outcome, error) {
		m, computed, err := Run(st, cell(keys[i]), nil)
		if err != nil {
			return outcome{}, fmt.Errorf("core: sweep cell %v: %w", keys[i], err)
		}
		return outcome{m, computed}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	ms := make(map[K]M, len(keys))
	computed := 0
	for i, k := range keys {
		ms[k] = outcomes[i].m
		if outcomes[i].computed {
			computed++
		}
	}
	return ms, computed, nil
}

// CellResult is the persisted payload of one dense or sparse measurement.
// EnergyJ is keyed by RAPL domain name (JSON object keys sort
// deterministically).
type CellResult struct {
	DurationS float64            `json:"duration_s"`
	EnergyJ   map[string]float64 `json:"energy_j"`
	TotalJ    float64            `json:"total_j"`
	// Iters is the solver iteration count of a sparse cell, never below
	// one; dense cells have none and omit it.
	Iters    int     `json:"iters,omitempty"`
	Residual float64 `json:"residual,omitempty"`
	Engine   string  `json:"engine"`
}

// energyByName keys a measurement's energies by domain name for storage.
func energyByName(byDomain map[rapl.Domain]float64) map[string]float64 {
	byName := make(map[string]float64, len(byDomain))
	for d, j := range byDomain {
		byName[d.String()] = j
	}
	return byName
}

// energyByDomain inverts energyByName over the domains this module
// charges: the four RAPL domains and the accelerator.
func energyByDomain(byName map[string]float64) map[rapl.Domain]float64 {
	byDomain := make(map[rapl.Domain]float64, len(byName))
	for _, d := range rapl.Domains() {
		if j, ok := byName[d.String()]; ok {
			byDomain[d] = j
		}
	}
	if j, ok := byName[rapl.Accel.String()]; ok {
		byDomain[rapl.Accel] = j
	}
	return byDomain
}
