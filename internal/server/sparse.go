package server

import (
	"context"
	"errors"
	"fmt"
	"net/url"

	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/rapl"
	"repro/internal/sparse"
)

// Sparse serving: GET /v1/recommend?matrix=sparse is its own route
// through the one pipeline, against the sparse iterative-solver model and
// the CPU-vs-accelerator device axis. Two deliberate asymmetries with the
// dense route:
//
//   - The surrogate never answers: it is trained on the dense LU/IMe
//     envelope only, so the route has no surrogate attempt and every
//     cache miss is computed exactly.
//   - There are no model knobs. The sparse model has no overlap, block
//     size or power-cap semantics; every consumer models with default
//     perfmodel.Params so cells share one store identity with lsbench
//     and campaign runs. A sparse request carrying cap_w is refused.

// SparseRecommendRequest is the canonicalized form of
// GET /v1/recommend?matrix=sparse.
type SparseRecommendRequest struct {
	Algorithm sparse.Algorithm
	Kind      sparse.Kind
	job
	Objective core.Objective
	Band      int
	Density   float64
	Cond      float64
}

// spec resolves the matrix recipe. The seed is pinned to the sweep seed:
// the analytic model never reads it, and sharing it keys served cells
// into the same store records as the campaign grid.
func (r SparseRecommendRequest) spec() sparse.Spec {
	return sparse.Spec{
		Kind: r.Kind, N: r.N, Band: r.Band, Density: r.Density,
		Cond: r.Cond, Seed: core.SparseSweepSeed,
	}
}

func (r SparseRecommendRequest) cacheKey() string {
	return fmt.Sprintf("v1/recommend|matrix=sparse|alg=%s|kind=%s|n=%d|ranks=%d|pl=%s|obj=%s|band=%d|dens=%g|cond=%g",
		r.Algorithm, r.Kind, r.N, r.Ranks, r.Placement, r.Objective, r.Band, r.Density, r.Cond)
}

// SparseCellResult is one modelled device cell in a sparse response.
type SparseCellResult struct {
	Device        string  `json:"device"`
	DurationS     float64 `json:"duration_s"`
	TotalJ        float64 `json:"energy_j"`
	PkgJ          float64 `json:"pkg_j"`
	DramJ         float64 `json:"dram_j"`
	AccelJ        float64 `json:"accel_j"`
	Iters         int     `json:"iters"`
	AvgPowerW     float64 `json:"avg_power_w"`
	GFlopsPerWatt float64 `json:"gflops_per_watt"`
}

// SparseRecommendResponse is the body of GET /v1/recommend?matrix=sparse.
type SparseRecommendResponse struct {
	Matrix    string           `json:"matrix"`
	Algorithm string           `json:"algorithm"`
	Kind      string           `json:"kind"`
	N         int              `json:"n"`
	Ranks     int              `json:"ranks"`
	Placement string           `json:"placement"`
	Band      int              `json:"band,omitempty"`
	Density   float64          `json:"density,omitempty"`
	Cond      float64          `json:"cond"`
	Objective string           `json:"objective"`
	Best      string           `json:"best"`
	MarginPct float64          `json:"margin_pct"`
	CPU       SparseCellResult `json:"cpu"`
	Accel     SparseCellResult `json:"accel"`
}

func sparseCellResult(m core.SparseMeasurement) SparseCellResult {
	return SparseCellResult{
		Device:        m.Experiment.Device.String(),
		DurationS:     m.DurationS,
		TotalJ:        m.TotalJ,
		PkgJ:          m.EnergyJ[rapl.PKG0] + m.EnergyJ[rapl.PKG1],
		DramJ:         m.EnergyJ[rapl.DRAM0] + m.EnergyJ[rapl.DRAM1],
		AccelJ:        m.EnergyJ[rapl.Accel],
		Iters:         m.Iters,
		AvgPowerW:     m.AvgPowerW(),
		GFlopsPerWatt: m.GFlopsPerWatt(),
	}
}

// sparseRecommendResponse renders a sparse recommendation as the
// response body — shared by the compute and store-backed paths, keeping
// them byte-identical.
func sparseRecommendResponse(req SparseRecommendRequest, rec core.SparseRecommendation) SparseRecommendResponse {
	return SparseRecommendResponse{
		Matrix:    "sparse",
		Algorithm: req.Algorithm.String(),
		Kind:      req.Kind.String(),
		N:         req.N,
		Ranks:     req.Ranks,
		Placement: req.Placement.String(),
		Band:      req.Band,
		Density:   req.Density,
		Cond:      req.Cond,
		Objective: rec.Objective.String(),
		Best:      rec.Best.String(),
		MarginPct: 100 * rec.Margin,
		CPU:       sparseCellResult(rec.CPU),
		Accel:     sparseCellResult(rec.Accel),
	}
}

// computeSparse models both device cells through Config.Store (nil or
// not), shared with lsbench and campaign runs.
func (s *Server) computeSparse(ctx context.Context, req SparseRecommendRequest) ([]byte, error) {
	rec, computed, err := core.RecommendSparseStored(req.Algorithm, req.spec(), req.Ranks, req.Placement, req.Objective, perfmodel.Params{}, s.cfg.Store)
	if err != nil {
		return nil, err
	}
	s.countStoreCells(computed, 2-computed)
	return marshalStage(ctx, sparseRecommendResponse(req, rec))
}

// ParseSparseRecommendRequest canonicalizes the query of
// GET /v1/recommend?matrix=sparse. Every rejection here is a structured
// 400: an unknown algorithm, matrix kind or objective, an infeasible
// shape, or a dense-only knob (cap_w) are client errors, never 500s.
func ParseSparseRecommendRequest(q url.Values) (SparseRecommendRequest, error) {
	var req SparseRecommendRequest
	var err error
	v := q.Get("alg")
	if v == "" {
		return req, errors.New("parameter alg: required with matrix=sparse (CG or BiCGSTAB)")
	}
	if req.Algorithm, err = sparse.ParseAlgorithm(v); err != nil {
		return req, fmt.Errorf("parameter alg: %w", err)
	}
	v = q.Get("kind")
	if v == "" {
		return req, errors.New("parameter kind: required with matrix=sparse (banded or random)")
	}
	if req.Kind, err = sparse.ParseKind(v); err != nil {
		return req, fmt.Errorf("parameter kind: %w", err)
	}
	// Both device configurations share node geometry; validating against
	// the baseline spec covers the accelerated one too.
	if req.job, err = parseJob(q); err != nil {
		return req, err
	}
	if req.Ranks > req.N {
		return req, fmt.Errorf("parameter ranks: %d exceeds the matrix order %d (empty row blocks)", req.Ranks, req.N)
	}
	if req.Band, err = queryInt(q, "band", 0); err != nil {
		return req, err
	}
	if req.Density, err = queryFloat(q, "density", 0); err != nil {
		return req, err
	}
	if req.Cond, err = queryFloat(q, "cond", 0); err != nil {
		return req, err
	}
	if err = req.spec().Validate(); err != nil {
		return req, err
	}
	if capW, err := queryFloat(q, "cap_w", 0); err != nil {
		return req, err
	} else if capW != 0 {
		return req, errors.New("parameter cap_w: not supported with matrix=sparse (sparse kernels are not cap-modelled)")
	}
	req.Objective, err = queryObjective(q)
	return req, err
}
