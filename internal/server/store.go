package server

import (
	"repro/internal/core"
	"repro/internal/perfmodel"
)

// countStoreCells records cell resolutions on the
// server_store_cells_total counter pair (absent without a store, where
// every cell is computed and nothing is worth counting).
func (s *Server) countStoreCells(computed, hits int) {
	if s.storeComputed == nil {
		return
	}
	if computed > 0 {
		s.storeComputed.Add(float64(computed))
	}
	if hits > 0 {
		s.storeHits.Add(float64(hits))
	}
}

// paperSweepRequest is the canonicalized {"grid":"paper"} sweep —
// exactly what ParseSweepRequest produces for the default paper-grid
// POST, so the warmed body keys the same cache entry.
func paperSweepRequest() SweepRequest {
	return SweepRequest{
		Cells: core.SweepKeys(),
		knobs: knobs{Overlap: true, BlockSize: perfmodel.Params{}.Normalized().BlockSize},
	}
}

// WarmFromStore pre-renders response bodies for every default-parameter
// request shape the store can answer completely, so a restarted advisord
// serves its first paper-grid requests as cache hits. It warms the
// {"grid":"paper"} sweep body (only when all 72 cells are stored) and
// the default-objective recommend body for each stored shape with both
// solvers present. Bodies go through the same builders as the compute
// path, so a warmed hit is byte-identical to a cold computation. Returns
// the number of bodies cached.
func (s *Server) WarmFromStore() int {
	st := s.cfg.Store
	if st == nil {
		return 0
	}
	req := paperSweepRequest()
	prm := req.params()
	// The stored cells of each shape, by solver.
	imeCells := make(map[job]core.Measurement)
	geCells := make(map[job]core.Measurement)
	cells := make([]CellResult, 0, len(req.Cells))
	for _, c := range req.Cells {
		m, ok, err := core.LookupAnalyticCell(st, c.Experiment(), prm)
		if err != nil {
			// Stored but unreadable is not the same as missing: say so,
			// then skip it like a missing one.
			s.log.Warn("warm from store: stored cell is unreadable",
				"alg", c.Algorithm.String(), "n", c.N, "ranks", c.Ranks, "placement", c.Placement.String(), "err", err.Error())
			ok = false
		}
		if !ok {
			continue
		}
		sh := job{c.N, c.Ranks, c.Placement}
		if c.Algorithm == perfmodel.IMe {
			imeCells[sh] = m
		} else {
			geCells[sh] = m
		}
		cells = append(cells, cellResult(m))
	}
	warmed := 0
	warm := func(key string, v any) {
		if body, err := marshalBody(v); err == nil {
			s.cache.Put(key, body)
			warmed++
		}
	}
	if len(cells) == len(req.Cells) {
		warm(req.cacheKey(), sweepResponse(req, cells))
	}
	for sh, imeM := range imeCells {
		geM, ok := geCells[sh]
		if !ok {
			continue
		}
		if rec, err := core.Rank(imeM, geM, core.MinEnergy); err == nil {
			rreq := RecommendRequest{job: sh, knobs: req.knobs, Objective: core.MinEnergy}
			warm(rreq.cacheKey(), recommendResponse(rreq, rec))
		}
	}
	return warmed
}
