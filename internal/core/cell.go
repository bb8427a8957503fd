package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"repro/internal/canon"
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
}

// identityBufs recycles the buffers identities are appended into. The
// bytes of an identity do not outlive a hit — they are digested into the
// key and dropped — so only a miss that appends a record copies them out.
var identityBufs = sync.Pool{New: func() any {
	buf := make([]byte, 0, 1024) // a cell identity is 350–900 bytes
	return &buf
}}

// appendIdentity appends a hand-codec identity: its own bytes, or
// encoding/json's when it declines (store.AppendIdentity asks it once
// more, then marshals). It is store.AppendIdentity with the concrete type
// in hand, so the hot path does not box the identity into an interface.
func appendIdentity[I store.Canonical](dst []byte, id I) ([]byte, error) {
	if b, ok := id.AppendCanonical(dst); ok {
		return b, nil
	}
	return store.AppendIdentity(dst, id)
}

// keyOf derives the cell's store key, leaving the identity bytes it
// digested in *buf.
func keyOf[M any, C Cell[M]](c C, buf *[]byte) (string, error) {
	identity, err := c.identity((*buf)[:0])
	if err != nil {
		return "", err
	}
	*buf = identity
	return store.Key(identity), nil
}

// fetch is get → decode for a key the caller has already derived.
func fetch[M any, C Cell[M]](st *store.Store, c C, key string) (m M, ok bool, err error) {
	rec, ok, err := st.Get(key)
	if err != nil || !ok {
		return m, false, err
	}
	if rec.Kind != c.kind() {
		return m, false, fmt.Errorf("core: record %.12s… has kind %q, want %q", rec.Key, rec.Kind, c.kind())
	}
	if m, err = c.decode(rec.Result); err != nil {
		return m, false, fmt.Errorf("core: decode %s result: %w", c.kind(), err)
	}
	return m, true, nil
}

// Lookup serves the cell from the store without ever computing; ok is
// false on a miss or a nil store. Strict from-store artifact emission and
// cache warming build on it.
func Lookup[M any, C Cell[M]](st *store.Store, c C) (m M, ok bool, err error) {
	if st == nil {
		return m, false, nil
	}
	buf := identityBufs.Get().(*[]byte)
	defer identityBufs.Put(buf)
	key, err := keyOf(c, buf)
	if err != nil {
		return m, false, err
	}
	return fetch(st, c, key)
}

// Run evaluates the cell through the store: a stored result is decoded
// and returned with computed false; a miss computes and appends under the
// key and the exact identity bytes the lookup derived, so the identity is
// encoded once per evaluation. admit, when non-nil, is asked after the
// miss and before the compute (the campaign's cell budget); its error
// ends the evaluation with nothing computed. A nil store is plain compute
// — the identity is never built — and that is the only no-store path
// there is.
func Run[M any, C Cell[M]](st *store.Store, c C, admit func() error) (m M, computed bool, err error) {
	var key string
	var buf *[]byte
	if st != nil {
		buf = identityBufs.Get().(*[]byte)
		defer identityBufs.Put(buf)
		if key, err = keyOf(c, buf); err != nil {
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
	// The record keeps its bytes for the life of the store: identity and
	// payload leave the recycled buffer in one copy.
	n := len(*buf)
	if *buf, err = c.encode(*buf, m); err != nil {
		return m, true, fmt.Errorf("core: encode %s result: %w", c.kind(), err)
	}
	owned := bytes.Clone(*buf)
	_, err = st.Append(store.Record{Key: key, Kind: c.kind(), Identity: owned[:n:n], Result: owned[n:]})
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

// runGrid evaluates one cell per key on the runner's workers and returns
// the results by key; computed counts the cells that ran their engine (0
// on a fully warm store). Cells are independent, and a store hit restores
// exactly what the compute path produces, so the map is identical for
// every (store, worker budget) combination — which is what keeps figure
// artifacts byte-identical across serial, parallel, cold and warm runs.
func runGrid[K comparable, M any, C Cell[M]](r *grid.Runner, st *store.Store, keys []K, cell func(K) C) (map[K]M, int, error) {
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

// AppendCanonical appends the payload's canonical JSON: what encoding/json
// emits for it, which canon_test.go holds it to. A nil EnergyJ (JSON null)
// and more domains than any engine charges are left to encoding/json.
func (r CellResult) AppendCanonical(dst []byte) ([]byte, bool) {
	if r.EnergyJ == nil {
		return dst, false
	}
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

// appendEnergy appends EnergyJ with its names sorted bytewise, the order
// encoding/json gives a map's keys.
func (r CellResult) appendEnergy(dst []byte) ([]byte, bool) {
	var names [8]string
	if len(r.EnergyJ) > len(names) {
		return dst, false
	}
	n := 0
	for name := range r.EnergyJ {
		if !canon.Plain(name) {
			return dst, false
		}
		i := n
		for ; i > 0 && names[i-1] > name; i-- {
			names[i] = names[i-1]
		}
		names[i] = name
		n++
	}
	o := canon.Begin(dst)
	for _, name := range names[:n] {
		o.Float(name, r.EnergyJ[name])
	}
	return o.End()
}

// scanCellResult reads back what AppendCanonical writes, members in any
// order. ok is false for anything else — a member twice, an unknown one, a
// null, whitespace — and the caller lets encoding/json decide.
func scanCellResult(payload []byte) (r CellResult, ok bool) {
	s := canon.Scan(payload)
	seen := 0
	once := func(member int) {
		if seen&member != 0 {
			s.Fail()
		}
		seen |= member
	}
	s.Open()
	for name, more := s.Member(); more; name, more = s.Member() {
		switch string(name) {
		case "duration_s":
			once(1 << 0)
			r.DurationS = s.Float()
		case "energy_j":
			once(1 << 1)
			r.EnergyJ = make(map[string]float64, len(energyDomains))
			s.Open()
			for name, more := s.Member(); more; name, more = s.Member() {
				domain := energyName(name)
				if _, twice := r.EnergyJ[domain]; twice {
					s.Fail()
				}
				r.EnergyJ[domain] = s.Float()
			}
		case "total_j":
			once(1 << 2)
			r.TotalJ = s.Float()
		case "iters":
			once(1 << 3)
			r.Iters = s.Int()
		case "residual":
			once(1 << 4)
			r.Residual = s.Float()
		case "engine":
			once(1 << 5)
			r.Engine = string(s.String())
		default:
			s.Fail()
		}
	}
	return r, s.Done()
}

// appendCellResult and decodeCellResult are the payload codec of the
// dense, monitored and sparse cells: the hand-written pair above, and
// encoding/json for whatever that declines. Store files are outside
// input, so which payloads decode, and to what, stays encoding/json's
// call: the scanner only ever takes bytes it reads to the same value.
func appendCellResult(dst []byte, r CellResult) ([]byte, error) {
	if b, ok := r.AppendCanonical(dst); ok {
		return b, nil
	}
	b, err := json.Marshal(r)
	return append(dst, b...), err
}

// decodeCellResult returns the payload's energies by domain beside it,
// which is how every measurement carries them.
func decodeCellResult(payload []byte) (CellResult, map[rapl.Domain]float64, error) {
	r, ok := scanCellResult(payload)
	if !ok {
		var viaJSON CellResult
		if err := json.Unmarshal(payload, &viaJSON); err != nil {
			return CellResult{}, nil, err
		}
		r = viaJSON
	}
	energy, err := energyByDomain(r.EnergyJ)
	return r, energy, err
}

// energyDomains are the domains this module charges, the only names a
// stored energy_j may carry: the four RAPL domains and the accelerator.
var energyDomains = append(rapl.Domains(), rapl.Accel)

// energyName returns a stored domain name as a string: the domain's own
// constant when this module charges it, so a hit allocates no names.
func energyName(name []byte) string {
	for _, d := range energyDomains {
		if known := d.String(); string(name) == known {
			return known
		}
	}
	return string(name)
}

// energyByName keys a measurement's energies by domain name for storage.
func energyByName(byDomain map[rapl.Domain]float64) map[string]float64 {
	byName := make(map[string]float64, len(byDomain))
	for d, j := range byDomain {
		byName[d.String()] = j
	}
	return byName
}

// energyByDomain inverts energyByName. A name that is no domain of
// energyDomains is an error, not a joule count quietly dropped: total_j
// would still include it and the per-domain figures would not add up.
func energyByDomain(byName map[string]float64) (map[rapl.Domain]float64, error) {
	byDomain := make(map[rapl.Domain]float64, len(byName))
	for _, d := range energyDomains {
		if j, ok := byName[d.String()]; ok {
			byDomain[d] = j
		}
	}
	if len(byDomain) == len(byName) {
		return byDomain, nil
	}
	var strays []string
	for name := range byName {
		if !slices.ContainsFunc(energyDomains, func(d rapl.Domain) bool { return d.String() == name }) {
			strays = append(strays, name)
		}
	}
	slices.Sort(strays)
	return nil, fmt.Errorf("core: stored energy_j names %q, no domain this module charges", strays)
}
