package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/canon"
	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/rapl"
	"repro/internal/store"
)

// The runner: the one place that says how an evaluation is memoized in
// the content-addressed experiment store. Every engine reaches the store
// through Run and lookup below; what differs per engine is a small Cell
// descriptor. Every set of cells an artifact or a campaign stage needs is
// a CellSet defined once in this package and evaluated through an
// Evaluator.

// Cell describes one memoizable evaluation: the record kind it is stored
// under, the canonical identity that addresses it, how to compute it, and
// how its result M is written to and read back from the persisted
// payload. The descriptors are this package's — AnalyticCell,
// MonitoredCell, SparseAnalyticCell and the resilience cell — and they are
// plain values. The descriptor's type also picks the codec: analytic,
// monitored and sparse cells, which a warm campaign reads by the hundred,
// hand-append and hand-scan their bytes (internal/canon, with
// encoding/json behind them as oracle and fallback); the resilience cell,
// a dozen records of seconds of engine time each, stays on encoding/json.
type Cell[M any] interface {
	// kind is the store record kind.
	kind() string
	// identity appends the canonical identity bytes to dst: what "the same
	// experiment" means persistently, defaults resolved and fields the
	// engine ignores left out so spelling variants collapse to one key.
	identity(dst []byte) ([]byte, error)
	// compute runs the engine.
	compute() (M, error)
	// encode appends a computed result's persisted payload to dst; decode
	// inverts it, re-deriving whatever the cell itself already carries.
	// Every persisted number is a float64 that JSON round-trips bit for
	// bit, so a decoded result formats to the same bytes as a computed one.
	encode(dst []byte, m M) ([]byte, error)
	decode(payload []byte) (M, error)
	// check fails exactly when decode does, and builds no M: it is how a
	// hit nobody keeps is served (unkept), so a warm campaign stage
	// allocates nothing per cell.
	check(payload []byte) error
}

// identityBufs recycles the buffers identities are appended into. The
// bytes of an identity outlive neither a hit, which probes the store's
// index with them, nor a miss: the store copies them, and the payload
// encoded after them, into the line it appends.
var identityBufs = sync.Pool{New: func() any {
	buf := make([]byte, 0, 1024) // a cell identity is 350–900 bytes
	return &buf
}}

// identityOf appends the cell's identity bytes to the recycled buffer.
func identityOf[M any, C Cell[M]](c C, buf *[]byte) ([]byte, error) {
	identity, err := c.identity((*buf)[:0])
	if err != nil {
		return nil, err
	}
	*buf = identity
	return identity, nil
}

// fetch looks the cell's identity bytes up and decodes a hit. A miss
// returns the key the identity digests to, for the record the caller
// appends.
func fetch[M any, C Cell[M]](st *store.Store, c C, identity []byte) (m M, key string, ok bool, err error) {
	rec, ok := st.Lookup(identity)
	if !ok {
		return m, rec.Key, false, nil
	}
	if rec.Kind != c.kind() {
		return m, "", false, fmt.Errorf("core: record %.12s… has kind %q, want %q", rec.Key, rec.Kind, c.kind())
	}
	if m, err = c.decode(rec.Result); err != nil {
		return m, "", false, fmt.Errorf("core: decode %s result: %w", c.kind(), err)
	}
	return m, "", true, nil
}

// lookup serves the cell from the store without ever computing; ok is
// false on a miss or a nil store.
func lookup[M any, C Cell[M]](st *store.Store, c C) (m M, ok bool, err error) {
	if st == nil {
		return m, false, nil
	}
	buf := identityBufs.Get().(*[]byte)
	defer identityBufs.Put(buf)
	identity, err := identityOf(c, buf)
	if err != nil {
		return m, false, err
	}
	m, _, ok, err = fetch(st, c, identity)
	return m, ok, err
}

// Run evaluates the cell through the store: a stored result is decoded
// and returned with computed false; a miss computes and appends under the
// key and the exact identity bytes the lookup derived, so the identity is
// encoded once per evaluation. admit, when non-nil, is asked after the
// miss and before the compute (the campaign's cell budget, or the strict
// emitter's refusal); its error ends the evaluation with nothing computed
// or appended. A nil store is plain compute
// — the identity is never built — and that is the only no-store path
// there is.
func Run[M any, C Cell[M]](st *store.Store, c C, admit func() error) (m M, computed bool, err error) {
	var key string
	var buf *[]byte
	if st != nil {
		buf = identityBufs.Get().(*[]byte)
		defer identityBufs.Put(buf)
		var identity []byte
		if identity, err = identityOf(c, buf); err != nil {
			return m, false, err
		}
		var ok bool
		if m, key, ok, err = fetch(st, c, identity); err != nil || ok {
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
	// Identity and payload go to the store in the recycled buffer: the
	// store keeps only the line it writes, never the caller's bytes.
	n := len(*buf)
	if *buf, err = c.encode(*buf, m); err != nil {
		return m, true, fmt.Errorf("core: encode %s result: %w", c.kind(), err)
	}
	_, err = st.Append(store.Record{Key: key, Kind: c.kind(), Identity: (*buf)[:n:n], Result: (*buf)[n:]})
	return m, true, err
}

// runBoth evaluates the two cells an advisor verdict ranks; computed
// counts the evaluations that ran (0, 1 or 2).
func runBoth[M any, C Cell[M]](st *store.Store, a, b C) (ma, mb M, computed int, err error) {
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

// Evaluator is what every cell set is evaluated through: the store its
// cells are memoized in (nil: always compute), the workers an analytic
// grid fans out over, and Admit, Run's hook between a store miss and the
// compute (nil admits every compute). A campaign's Admit spends its cell
// budget; a strict emitter's refuses, so a miss is an error and nothing
// is computed or appended. The evaluator counts the cells it computed and
// the ones the store served; it is safe for concurrent use.
//
// The analytic cells it computes share one schedule-replay memo, so each
// distinct schedule is replayed once per evaluator whatever its stages
// vary around it (placement, power cap, repetition). The memo lives and
// dies with the evaluator: a campaign run, an lsbench invocation or an
// artifact emission each start cold, and a cell computed outside an
// evaluator replays its schedule every time.
type Evaluator struct {
	Store  *store.Store
	Runner *grid.Runner
	Admit  func() error

	computed, hits atomic.Int64
	replays        perfmodel.Replays
}

// Counts returns how many cells the evaluator has computed and how many
// the store served.
func (ev *Evaluator) Counts() (computed, hits int) {
	return int(ev.computed.Load()), int(ev.hits.Load())
}

// Analytic evaluates RunAnalytic(e, prm) as one cell through the
// evaluator: its store, Admit hook, counters and replay memo. It is how a
// batch caller outside this package prices a set of cells of its own
// (the fleet's candidate shapes, one sweep request); the error is Run's,
// for the caller to name the cell in its own terms.
func (ev *Evaluator) Analytic(e Experiment, prm perfmodel.Params) (Measurement, error) {
	return count(ev, AnalyticCell{E: e, Params: prm, replays: &ev.replays})
}

// count runs one cell through the evaluator and counts it.
func count[M any, C Cell[M]](ev *Evaluator, c C) (M, error) {
	m, computed, err := Run(ev.Store, c, ev.Admit)
	if err != nil {
		return m, err
	}
	if computed {
		ev.computed.Add(1)
	} else {
		ev.hits.Add(1)
	}
	return m, nil
}

// evaluate is count for a cell of a set; a failure names the cell by its
// key.
func evaluate[K any, M any, C Cell[M]](ev *Evaluator, key K, c C) (M, error) {
	m, err := count(ev, c)
	if err != nil {
		return m, fmt.Errorf("core: cell %v: %w", key, err)
	}
	return m, nil
}

// unkept is a cell whose result the caller discards (CellSet.Run): a hit
// is checked, not decoded — a stored payload that does not decode fails
// it all the same — and a miss computes and appends as the cell does.
type unkept[M any, C Cell[M]] struct{ c C }

func (u unkept[M, C]) kind() string                           { return u.c.kind() }
func (u unkept[M, C]) identity(dst []byte) ([]byte, error)    { return u.c.identity(dst) }
func (u unkept[M, C]) compute() (M, error)                    { return u.c.compute() }
func (u unkept[M, C]) encode(dst []byte, m M) ([]byte, error) { return u.c.encode(dst, m) }
func (u unkept[M, C]) decode(payload []byte) (m M, err error) { return m, u.c.check(payload) }
func (u unkept[M, C]) check(payload []byte) error             { return u.c.check(payload) }

// CellSet is one set of cells, defined once in this package. A campaign
// stage runs it and keeps nothing; an artifact collects it into R. Both
// verbs evaluate the same cells the same way, which is what lets a store
// a stage filled serve an artifact with every cell a hit.
type CellSet[R any] struct {
	n    int
	eval func(ev *Evaluator, keep bool) (R, error)
}

// Len is the number of cell evaluations the set makes.
func (s CellSet[R]) Len() int { return s.n }

// Run evaluates every cell and keeps no result.
func (s CellSet[R]) Run(ev *Evaluator) error {
	_, err := s.eval(ev, false)
	return err
}

// Collect evaluates every cell and builds the set's result from them.
func (s CellSet[R]) Collect(ev *Evaluator) (R, error) { return s.eval(ev, true) }

// gridCells is the set of one independent cell per key, evaluated on the
// evaluator's workers; cell builds a key's cell for the evaluator that
// evaluates it, and build turns the collected results, by key, into
// the set's result. A store hit restores exactly what the compute path
// produces, so the map is identical for every (store, worker budget)
// combination — which is what keeps figure artifacts byte-identical
// across serial, parallel, cold and warm runs. Running the set collects
// nothing: a stage only needs its cells to exist, so its hits are checked
// rather than decoded (unkept), and the map, ~90 allocations per 72-cell
// grid, is not built.
func gridCells[K comparable, M any, C Cell[M], R any](keys []K, cell func(*Evaluator, K) C, build func(map[K]M) R) CellSet[R] {
	return CellSet[R]{n: len(keys), eval: func(ev *Evaluator, keep bool) (r R, err error) {
		if !keep {
			_, err := grid.Map(ev.Runner, len(keys), func(i int) (struct{}, error) {
				_, err := evaluate(ev, keys[i], unkept[M, C]{cell(ev, keys[i])})
				return struct{}{}, err
			})
			return r, err
		}
		ms, err := grid.Map(ev.Runner, len(keys), func(i int) (M, error) {
			return evaluate(ev, keys[i], cell(ev, keys[i]))
		})
		if err != nil {
			return r, err
		}
		byKey := make(map[K]M, len(keys))
		for i, k := range keys {
			byKey[k] = ms[i]
		}
		return build(byKey), nil
	}}
}

// CellResult is the persisted payload of one dense or sparse measurement.
// Its energy_j is an object keyed by domain name (appendEnergy).
type CellResult struct {
	DurationS float64     `json:"duration_s"`
	EnergyJ   rapl.Energy `json:"energy_j"`
	TotalJ    float64     `json:"total_j"`
	// Iters is the solver iteration count of a sparse cell, never below
	// one; dense cells have none and omit it.
	Iters    int     `json:"iters,omitempty"`
	Residual float64 `json:"residual,omitempty"`
	Engine   string  `json:"engine"`
}

// AppendCanonical appends the payload's canonical JSON: what encoding/json
// emits for the same members with energy_j a map of names, which
// canon_test.go holds it to. A NaN or an infinity, which JSON cannot
// hold, and an engine name JSON would escape are declined.
func (r CellResult) AppendCanonical(dst []byte) ([]byte, bool) {
	o := canon.Begin(dst)
	o.Float("duration_s", r.DurationS)
	o.Value("energy_j", r.appendEnergy)
	o.Float("total_j", r.TotalJ)
	if r.Iters != 0 {
		o.Int("iters", int64(r.Iters))
	}
	if r.Residual != 0 {
		o.Float("residual", r.Residual)
	}
	o.String("engine", r.Engine)
	return o.End()
}

// appendEnergy appends EnergyJ keyed by domain name, in the bytewise name
// order encoding/json gives a map's keys: the accelerator only when it
// charged anything (only accelerated sparse cells do), then DRAM0, DRAM1,
// PKG0 and PKG1, which every cell charges.
func (r CellResult) appendEnergy(dst []byte) ([]byte, bool) {
	o := canon.Begin(dst)
	if j := r.EnergyJ[rapl.Accel]; j != 0 {
		o.Float(rapl.Accel.String(), j)
	}
	for _, d := range [...]rapl.Domain{rapl.DRAM0, rapl.DRAM1, rapl.PKG0, rapl.PKG1} {
		o.Float(d.String(), r.EnergyJ[d])
	}
	return o.End()
}

// scanCellResult reads back what AppendCanonical writes, members in any
// order, with energy_j read into r.EnergyJ by domain. ok is false for
// anything else — a member twice, an unknown one, a name that is no domain
// of energyDomains or names one twice, a null, whitespace — and the
// caller lets encoding/json decide. restore false reads the same bytes to
// the same ok and restores nothing: it converts a number only where the
// conversion could fail (canon's SkipFloat).
func scanCellResult(payload []byte, restore bool) (r CellResult, ok bool) {
	s := canon.Scan(payload)
	seen := 0
	once := func(member int) {
		if seen&member != 0 {
			s.Fail()
		}
		seen |= member
	}
	float := func() float64 {
		if restore {
			return s.Float()
		}
		s.SkipFloat()
		return 0
	}
	s.Open()
	for name, more := s.Member(); more; name, more = s.Member() {
		switch string(name) {
		case "duration_s":
			once(1 << 0)
			r.DurationS = float()
		case "energy_j":
			once(1 << 1)
			named := 0
			s.Open()
			for name, more := s.Member(); more; name, more = s.Member() {
				d, known := domainNamed(name)
				if !known || named&(1<<d) != 0 {
					s.Fail()
				}
				named |= 1 << d
				r.EnergyJ[d] = float()
			}
		case "total_j":
			once(1 << 2)
			r.TotalJ = float()
		case "iters":
			once(1 << 3)
			r.Iters = s.Int()
		case "residual":
			once(1 << 4)
			r.Residual = float()
		case "engine":
			once(1 << 5)
			r.Engine = engineNamed(s.String())
		default:
			s.Fail()
		}
	}
	return r, s.Done()
}

// appendCellResult and decodeCellResult are the payload codec of the
// dense, monitored and sparse cells: the hand-written pair above, and
// encoding/json for whatever the scanner declines. Store files are
// outside input, so which payloads decode, and to what, stays
// encoding/json's call: the scanner only ever takes bytes it reads to the
// same value. What the appender declines has no payload: every engine
// name is plain, so that is a NaN or an infinity, which encoding/json
// refuses too.
func appendCellResult(dst []byte, r CellResult) ([]byte, error) {
	b, ok := r.AppendCanonical(dst)
	if !ok {
		return dst, fmt.Errorf("core: result %+v has no JSON form", r)
	}
	return b, nil
}

// decodeCellResult reads a payload. The fallback reads energy_j as the
// map of names encoding/json makes of it — a member given twice merges
// into one map, a null empties it — and only then into the domains, so
// it accepts what encoding/json over the map does.
func decodeCellResult(payload []byte) (CellResult, error) {
	if r, ok := scanCellResult(payload, true); ok {
		return r, nil
	}
	var v struct {
		CellResult
		EnergyJ map[string]float64 `json:"energy_j"` // hides CellResult's
	}
	if err := json.Unmarshal(payload, &v); err != nil {
		return CellResult{}, err
	}
	var err error
	v.CellResult.EnergyJ, err = energyNamed(v.EnergyJ)
	return v.CellResult, err
}

// checkCellResult is decodeCellResult's error alone: a canonical payload
// is scanned without restoring anything.
func checkCellResult(payload []byte) error {
	if _, ok := scanCellResult(payload, false); ok {
		return nil
	}
	_, err := decodeCellResult(payload)
	return err
}

// energyDomains are the domains this module charges, the only names a
// stored energy_j may carry: the four RAPL domains and the accelerator.
var energyDomains = append(rapl.Domains(), rapl.Accel)

// domainNamed returns the domain of energyDomains a stored name names.
func domainNamed(name []byte) (rapl.Domain, bool) {
	for _, d := range energyDomains {
		if string(name) == d.String() {
			return d, true
		}
	}
	return 0, false
}

// The engines a measurement names, one constant each, so that a decoded
// payload takes its engine name without allocating a copy.
const (
	engineAnalytic       = "analytic"
	engineMonitored      = "monitored"
	engineSparseAnalytic = "sparse-analytic"
)

// engineNamed returns a stored engine name as a string: the engine's own
// constant when it is one of this module's.
func engineNamed(name []byte) string {
	for _, known := range [...]string{engineAnalytic, engineMonitored, engineSparseAnalytic} {
		if string(name) == known {
			return known
		}
	}
	return string(name)
}

// energyNamed reads joules keyed by domain name. A name that is no domain
// of energyDomains is an error, not a joule count quietly dropped: total_j
// would still include it and the per-domain figures would not add up.
func energyNamed(byName map[string]float64) (rapl.Energy, error) {
	var e rapl.Energy
	known := 0
	for _, d := range energyDomains {
		if j, ok := byName[d.String()]; ok {
			e[d] = j
			known++
		}
	}
	if known == len(byName) {
		return e, nil
	}
	var strays []string
	for name := range byName {
		if !slices.ContainsFunc(energyDomains, func(d rapl.Domain) bool { return d.String() == name }) {
			strays = append(strays, name)
		}
	}
	slices.Sort(strays)
	return rapl.Energy{}, fmt.Errorf("core: stored energy_j names %q, no domain this module charges", strays)
}
