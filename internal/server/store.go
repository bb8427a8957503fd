package server

import (
	"repro/internal/cluster"
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
	req := SweepRequest{
		Overlap:   true,
		BlockSize: perfmodel.Params{}.Normalized().BlockSize,
	}
	for _, k := range core.SweepKeys() {
		req.Cells = append(req.Cells, SweepCell{Algorithm: k.Algorithm, N: k.N, Ranks: k.Ranks, Placement: k.Placement})
	}
	return req
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
	type shape struct {
		n, ranks  int
		placement cluster.Placement
	}
	byShape := make(map[shape]map[perfmodel.Algorithm]core.Measurement)
	cells := make([]CellResult, 0, len(req.Cells))
	complete := true
	for _, c := range req.Cells {
		e := core.Experiment{Algorithm: c.Algorithm, N: c.N, Ranks: c.Ranks, Placement: c.Placement}
		m, ok, err := core.LookupAnalyticCell(st, e, prm)
		if err != nil {
			// Stored but unreadable is not the same as missing: say so,
			// then skip it like a missing one.
			s.log.Warn("warm from store: stored cell is unreadable",
				"alg", c.Algorithm.String(), "n", c.N, "ranks", c.Ranks, "placement", c.Placement.String(), "err", err.Error())
			ok = false
		}
		if !ok {
			complete = false
			continue
		}
		sh := shape{c.N, c.Ranks, c.Placement}
		if byShape[sh] == nil {
			byShape[sh] = make(map[perfmodel.Algorithm]core.Measurement, 2)
		}
		byShape[sh][c.Algorithm] = m
		cells = append(cells, cellResult(m))
	}
	warmed := 0
	if complete {
		if body, err := marshalBody(sweepResponse(req, cells)); err == nil {
			s.cache.Put(req.cacheKey(), body)
			warmed++
		}
	}
	for sh, ms := range byShape {
		imeM, okI := ms[perfmodel.IMe]
		geM, okG := ms[perfmodel.ScaLAPACK]
		if !okI || !okG {
			continue
		}
		rec, err := core.Rank(imeM, geM, core.MinEnergy)
		if err != nil {
			continue
		}
		rreq := RecommendRequest{
			N: sh.n, Ranks: sh.ranks, Placement: sh.placement,
			Objective: core.MinEnergy, Overlap: req.Overlap, BlockSize: req.BlockSize,
		}
		body, err := marshalBody(recommendResponse(rreq, rec))
		if err != nil {
			continue
		}
		s.cache.Put(rreq.cacheKey(), body)
		warmed++
	}
	return warmed
}
