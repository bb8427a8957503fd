package server

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/surrogate"
)

// The learned fast path. Each attempt returns the marshalled response
// body for an in-envelope request, or ok=false to send the request down
// the exact pipeline. The bodies are rendered by the exact routes'
// renderers with the same verdict rule (core.Rank), so the fast path can
// only change measurement values — inside the surrogate's pinned error
// envelope — never response shape or ranking rules. The pipeline only
// calls these when Config.Surrogate is set.

// fastRecommend answers a dense recommendation from the surrogate. A
// recommendation needs both solvers in envelope; if either prediction is
// refused the whole request falls back, keeping the two cells of one
// verdict from mixing engines.
func (s *Server) fastRecommend(req RecommendRequest) ([]byte, bool) {
	cfg, err := cluster.NewConfig(req.Ranks, req.Placement, cluster.MarconiA3())
	if err != nil {
		return nil, false
	}
	p, prm := s.cfg.Surrogate, req.params()
	imeRes, ok := p.Predict(perfmodel.IMe, req.N, cfg, prm)
	if !ok {
		return nil, false
	}
	geRes, ok := p.Predict(perfmodel.ScaLAPACK, req.N, cfg, prm)
	if !ok {
		return nil, false
	}
	rec, err := core.Rank(
		req.measurement(perfmodel.IMe, cfg, imeRes),
		req.measurement(perfmodel.ScaLAPACK, cfg, geRes),
		req.Objective,
	)
	if err != nil {
		return nil, false
	}
	body, err := marshalBody(recommendResponse(req, rec))
	return body, err == nil
}

// fastPredict answers a predict request from the surrogate.
func (s *Server) fastPredict(req PredictRequest) ([]byte, bool) {
	cfg, err := cluster.NewConfig(req.Ranks, req.Placement, cluster.MarconiA3())
	if err != nil {
		return nil, false
	}
	res, ok := s.cfg.Surrogate.Predict(req.Algorithm, req.N, cfg, req.params())
	if !ok {
		return nil, false
	}
	body, err := marshalBody(predictResponse(req, cfg, res))
	return body, err == nil
}

// DefaultSurrogate loads the committed embedded coefficient table, for
// callers (cmd/advisord) wiring the fast path with its standard model.
func DefaultSurrogate() (*surrogate.Predictor, error) {
	return surrogate.Default()
}
