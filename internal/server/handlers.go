package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/rapl"
)

// maxOrder bounds accepted matrix orders: far past the paper grid
// (34560) but small enough that one analytic evaluation stays cheap.
const maxOrder = 1 << 20

// maxSweepCells bounds one sweep request (the full paper grid is 72).
const maxSweepCells = 512

// maxSweepBody bounds the POST body size.
const maxSweepBody = 1 << 20

// RecommendRequest is the canonicalized form of GET /v1/recommend:
// every field is resolved (defaults applied, block size normalized), so
// equal requests — however spelled — key the same cache entry.
type RecommendRequest struct {
	N         int
	Ranks     int
	Placement cluster.Placement
	Objective core.Objective
	Overlap   bool
	BlockSize int
	PowerCapW float64
}

func (r RecommendRequest) params() perfmodel.Params {
	return perfmodel.Params{Overlap: r.Overlap, BlockSize: r.BlockSize, PowerCapW: r.PowerCapW}
}

func (r RecommendRequest) cacheKey() string {
	return fmt.Sprintf("v1/recommend|n=%d|ranks=%d|pl=%s|obj=%s|ov=%t|nb=%d|cap=%g",
		r.N, r.Ranks, r.Placement, r.Objective, r.Overlap, r.BlockSize, r.PowerCapW)
}

// PredictRequest is the canonicalized form of GET /v1/predict.
type PredictRequest struct {
	Algorithm perfmodel.Algorithm
	N         int
	Ranks     int
	Placement cluster.Placement
	Overlap   bool
	BlockSize int
	PowerCapW float64
}

func (r PredictRequest) params() perfmodel.Params {
	return perfmodel.Params{Overlap: r.Overlap, BlockSize: r.BlockSize, PowerCapW: r.PowerCapW}
}

func (r PredictRequest) cacheKey() string {
	return fmt.Sprintf("v1/predict|alg=%s|n=%d|ranks=%d|pl=%s|ov=%t|nb=%d|cap=%g",
		r.Algorithm, r.N, r.Ranks, r.Placement, r.Overlap, r.BlockSize, r.PowerCapW)
}

// SweepRequest is the canonicalized form of POST /v1/sweep: a batch of
// grid cells evaluated on the server's worker pool. Cell order is part
// of the request identity (responses preserve it).
type SweepRequest struct {
	Cells     []SweepCell
	Overlap   bool
	BlockSize int
	PowerCapW float64
}

// SweepCell is one resolved (algorithm, n, ranks, placement) grid cell.
type SweepCell struct {
	Algorithm perfmodel.Algorithm
	N         int
	Ranks     int
	Placement cluster.Placement
}

func (r SweepRequest) params() perfmodel.Params {
	return perfmodel.Params{Overlap: r.Overlap, BlockSize: r.BlockSize, PowerCapW: r.PowerCapW}
}

func (r SweepRequest) cacheKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v1/sweep|ov=%t|nb=%d|cap=%g", r.Overlap, r.BlockSize, r.PowerCapW)
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "|%s,%d,%d,%s", c.Algorithm, c.N, c.Ranks, c.Placement)
	}
	return b.String()
}

// CellResult is one modelled cell in a response body.
type CellResult struct {
	Algorithm     string  `json:"algorithm"`
	N             int     `json:"n"`
	Ranks         int     `json:"ranks"`
	Placement     string  `json:"placement"`
	DurationS     float64 `json:"duration_s"`
	TotalJ        float64 `json:"energy_j"`
	PkgJ          float64 `json:"pkg_j"`
	DramJ         float64 `json:"dram_j"`
	AvgPowerW     float64 `json:"avg_power_w"`
	GFlopsPerWatt float64 `json:"gflops_per_watt"`
}

// RecommendResponse is the body of GET /v1/recommend.
type RecommendResponse struct {
	N         int        `json:"n"`
	Ranks     int        `json:"ranks"`
	Placement string     `json:"placement"`
	Objective string     `json:"objective"`
	Best      string     `json:"best"`
	MarginPct float64    `json:"margin_pct"`
	IMe       CellResult `json:"ime"`
	ScaLAPACK CellResult `json:"scalapack"`
}

// PredictResponse is the body of GET /v1/predict.
type PredictResponse struct {
	CellResult
	ComputeS     float64 `json:"compute_s"`
	ExposedCommS float64 `json:"exposed_comm_s"`
}

// SweepResponse is the body of POST /v1/sweep.
type SweepResponse struct {
	Count     int          `json:"count"`
	Overlap   bool         `json:"overlap"`
	BlockSize int          `json:"block_size"`
	PowerCapW float64      `json:"power_cap_w"`
	Cells     []CellResult `json:"cells"`
}

// cellResult summarises a measurement for a response body.
func cellResult(m core.Measurement) CellResult {
	return CellResult{
		Algorithm:     m.Experiment.Algorithm.String(),
		N:             m.Experiment.N,
		Ranks:         m.Experiment.Ranks,
		Placement:     m.Experiment.Placement.String(),
		DurationS:     m.DurationS,
		TotalJ:        m.TotalJ,
		PkgJ:          m.EnergyJ[rapl.PKG0] + m.EnergyJ[rapl.PKG1],
		DramJ:         m.EnergyJ[rapl.DRAM0] + m.EnergyJ[rapl.DRAM1],
		AvgPowerW:     m.AvgPowerW(),
		GFlopsPerWatt: m.GFlopsPerWatt(),
	}
}

// --- real evaluators (tests substitute counting/delaying doubles) ---
//
// Each resolves its grid cells through Config.Store: a stored cell skips
// the model, a computed one is appended for every future process
// (advisord restarts, campaign runs, replicas sharing the directory).
// Without a store the same call is plain compute. Stored measurements
// round-trip bit for bit (internal/core/cell.go), so the body is the same
// bytes either way — invariant 1 of the serving pipeline extends across
// process restarts. /v1/predict stays outside: its body carries the
// phase-split timings that are not part of the stored cell schema.

func (s *Server) recommend(req RecommendRequest) (RecommendResponse, error) {
	rec, computed, err := core.RecommendStored(req.N, req.Ranks, req.Placement, req.Objective, req.params(), s.cfg.Store)
	if err != nil {
		return RecommendResponse{}, err
	}
	s.countStoreCells(computed, 2-computed)
	return recommendResponse(req, rec), nil
}

// recommendResponse renders a recommendation as the response body. The
// evaluator and cache warming both build bodies through here, keeping
// them byte-identical.
func recommendResponse(req RecommendRequest, rec core.Recommendation) RecommendResponse {
	return RecommendResponse{
		N:         req.N,
		Ranks:     req.Ranks,
		Placement: req.Placement.String(),
		Objective: rec.Objective.String(),
		Best:      rec.Best.String(),
		MarginPct: 100 * rec.Margin,
		IMe:       cellResult(rec.IMe),
		ScaLAPACK: cellResult(rec.ScaLAPACK),
	}
}

func evalPredict(req PredictRequest) (PredictResponse, error) {
	cfg, err := cluster.NewConfig(req.Ranks, req.Placement, cluster.MarconiA3())
	if err != nil {
		return PredictResponse{}, err
	}
	res, err := perfmodel.Run(req.Algorithm, req.N, cfg, req.params())
	if err != nil {
		return PredictResponse{}, err
	}
	m := core.Measurement{
		Experiment: core.Experiment{Algorithm: req.Algorithm, N: req.N, Ranks: req.Ranks, Placement: req.Placement},
		Config:     cfg,
		DurationS:  res.DurationS,
		TotalJ:     res.TotalJ,
		EnergyJ:    res.EnergyJ,
	}
	return PredictResponse{
		CellResult:   cellResult(m),
		ComputeS:     res.ComputeS,
		ExposedCommS: res.ExposedCommS,
	}, nil
}

func (s *Server) sweep(ctx context.Context, req SweepRequest, r *grid.Runner) (SweepResponse, error) {
	prm := req.params()
	cells, err := grid.Map(r, len(req.Cells), func(i int) (CellResult, error) {
		if err := ctx.Err(); err != nil {
			return CellResult{}, err
		}
		c := req.Cells[i]
		m, computed, err := core.RunAnalyticStored(core.Experiment{
			Algorithm: c.Algorithm, N: c.N, Ranks: c.Ranks, Placement: c.Placement,
		}, prm, s.cfg.Store)
		if err != nil {
			return CellResult{}, fmt.Errorf("cell %s/%d/%d/%s: %w", c.Algorithm, c.N, c.Ranks, c.Placement, err)
		}
		if computed {
			s.countStoreCells(1, 0)
		} else {
			s.countStoreCells(0, 1)
		}
		return cellResult(m), nil
	})
	if err != nil {
		return SweepResponse{}, err
	}
	return sweepResponse(req, cells), nil
}

// sweepResponse renders evaluated cells as the response body — shared by
// the evaluator and cache warming.
func sweepResponse(req SweepRequest, cells []CellResult) SweepResponse {
	return SweepResponse{
		Count:     len(cells),
		Overlap:   req.Overlap,
		BlockSize: req.BlockSize,
		PowerCapW: req.PowerCapW,
		Cells:     cells,
	}
}

// --- parsing ---

func queryInt(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: not an integer: %q", name, v)
	}
	return n, nil
}

func queryBool(q url.Values, name string, def bool) (bool, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("parameter %s: not a boolean: %q", name, v)
	}
	return b, nil
}

func queryFloat(q url.Values, name string, def float64) (float64, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: not a number: %q", name, v)
	}
	return f, nil
}

// parseShape resolves the parameters shared by recommend and predict:
// the job shape plus model knobs, with the block size canonicalized via
// perfmodel.Params.Normalized so equivalent spellings share cache keys.
func parseShape(q url.Values) (n, ranks int, pl cluster.Placement, overlap bool, nb int, capW float64, err error) {
	if n, err = queryInt(q, "n", 0); err != nil {
		return
	}
	if n <= 0 || n > maxOrder {
		err = fmt.Errorf("parameter n: want 1..%d, got %d", maxOrder, n)
		return
	}
	if ranks, err = queryInt(q, "ranks", 0); err != nil {
		return
	}
	pl = cluster.FullLoad
	if v := q.Get("placement"); v != "" {
		if pl, err = cluster.ParsePlacement(v); err != nil {
			return
		}
	}
	if _, err = cluster.NewConfig(ranks, pl, cluster.MarconiA3()); err != nil {
		return
	}
	if overlap, err = queryBool(q, "overlap", true); err != nil {
		return
	}
	if nb, err = queryInt(q, "nb", 0); err != nil {
		return
	}
	if nb < 0 {
		err = fmt.Errorf("parameter nb: must be non-negative, got %d", nb)
		return
	}
	nb = perfmodel.Params{BlockSize: nb}.Normalized().BlockSize
	if capW, err = queryFloat(q, "cap_w", 0); err != nil {
		return
	}
	if capW < 0 {
		err = fmt.Errorf("parameter cap_w: must be non-negative, got %g", capW)
	}
	return
}

// ParseRecommendRequest canonicalizes the query of GET /v1/recommend.
func ParseRecommendRequest(q url.Values) (RecommendRequest, error) {
	var req RecommendRequest
	var err error
	if req.N, req.Ranks, req.Placement, req.Overlap, req.BlockSize, req.PowerCapW, err = parseShape(q); err != nil {
		return req, err
	}
	req.Objective = core.MinEnergy
	if v := q.Get("objective"); v != "" {
		if req.Objective, err = core.ParseObjective(v); err != nil {
			return req, err
		}
	}
	return req, nil
}

// ParsePredictRequest canonicalizes the query of GET /v1/predict.
func ParsePredictRequest(q url.Values) (PredictRequest, error) {
	var req PredictRequest
	var err error
	if req.N, req.Ranks, req.Placement, req.Overlap, req.BlockSize, req.PowerCapW, err = parseShape(q); err != nil {
		return req, err
	}
	v := q.Get("alg")
	if v == "" {
		return req, errors.New("parameter alg: required (IMe or ScaLAPACK)")
	}
	if req.Algorithm, err = perfmodel.ParseAlgorithm(v); err != nil {
		return req, err
	}
	return req, nil
}

// sweepWire is the JSON wire form of POST /v1/sweep.
type sweepWire struct {
	// Grid "paper" expands to the full 72-cell §5.1 evaluation grid;
	// otherwise Cells lists explicit cells.
	Grid      string          `json:"grid"`
	Cells     []sweepCellWire `json:"cells"`
	Overlap   *bool           `json:"overlap"`
	BlockSize int             `json:"block_size"`
	PowerCapW float64         `json:"power_cap_w"`
}

type sweepCellWire struct {
	Algorithm string `json:"algorithm"`
	N         int    `json:"n"`
	Ranks     int    `json:"ranks"`
	Placement string `json:"placement"`
}

// ParseSweepRequest decodes and canonicalizes the body of POST /v1/sweep.
func ParseSweepRequest(r *http.Request) (SweepRequest, error) {
	var req SweepRequest
	var wire sweepWire
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxSweepBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return req, fmt.Errorf("request body: %w", err)
	}
	req.Overlap = true
	if wire.Overlap != nil {
		req.Overlap = *wire.Overlap
	}
	if wire.BlockSize < 0 {
		return req, fmt.Errorf("block_size: must be non-negative, got %d", wire.BlockSize)
	}
	req.BlockSize = perfmodel.Params{BlockSize: wire.BlockSize}.Normalized().BlockSize
	if wire.PowerCapW < 0 {
		return req, fmt.Errorf("power_cap_w: must be non-negative, got %g", wire.PowerCapW)
	}
	req.PowerCapW = wire.PowerCapW

	switch {
	case wire.Grid == "paper":
		if len(wire.Cells) > 0 {
			return req, errors.New(`grid "paper" and explicit cells are mutually exclusive`)
		}
		for _, k := range core.SweepKeys() {
			req.Cells = append(req.Cells, SweepCell{Algorithm: k.Algorithm, N: k.N, Ranks: k.Ranks, Placement: k.Placement})
		}
	case wire.Grid != "":
		return req, fmt.Errorf("grid: unknown grid %q (want \"paper\")", wire.Grid)
	case len(wire.Cells) == 0:
		return req, errors.New(`request names no work: set "cells" or "grid":"paper"`)
	case len(wire.Cells) > maxSweepCells:
		return req, fmt.Errorf("cells: %d exceeds the per-request limit %d", len(wire.Cells), maxSweepCells)
	default:
		for i, cw := range wire.Cells {
			var c SweepCell
			var err error
			if c.Algorithm, err = perfmodel.ParseAlgorithm(cw.Algorithm); err != nil {
				return req, fmt.Errorf("cells[%d]: %w", i, err)
			}
			if cw.N <= 0 || cw.N > maxOrder {
				return req, fmt.Errorf("cells[%d]: n: want 1..%d, got %d", i, maxOrder, cw.N)
			}
			c.N = cw.N
			c.Placement = cluster.FullLoad
			if cw.Placement != "" {
				if c.Placement, err = cluster.ParsePlacement(cw.Placement); err != nil {
					return req, fmt.Errorf("cells[%d]: %w", i, err)
				}
			}
			c.Ranks = cw.Ranks
			if _, err = cluster.NewConfig(c.Ranks, c.Placement, cluster.MarconiA3()); err != nil {
				return req, fmt.Errorf("cells[%d]: %w", i, err)
			}
			req.Cells = append(req.Cells, c)
		}
	}
	return req, nil
}

// --- handlers ---

// parseStage wraps one handler's parse step in a trace span.
func parseStage[T any](r *http.Request, parse func() (T, error)) (T, error) {
	sp := requestTraceFrom(r.Context()).stage("parse")
	req, err := parse()
	sp.SetAttr("ok", err == nil)
	sp.End()
	return req, err
}

// marshalStage wraps a compute closure's body rendering in a trace span.
func marshalStage(ctx context.Context, v any) ([]byte, error) {
	sp := requestTraceFrom(ctx).stage("marshal")
	b, err := marshalBody(v)
	sp.End()
	return b, err
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	// The matrix parameter routes between the dense and the sparse
	// pipeline before canonicalization: the two request families have
	// disjoint parameter sets, cache-key shapes and response bodies.
	// Absent or "dense" keeps the original path (and its exact cache
	// keys) byte-for-byte.
	switch m := r.URL.Query().Get("matrix"); m {
	case "", "dense":
	case "sparse":
		s.handleRecommendSparse(w, r)
		return
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("parameter matrix: unknown matrix class %q (want dense or sparse)", m))
		return
	}
	req, err := parseStage(r, func() (RecommendRequest, error) { return ParseRecommendRequest(r.URL.Query()) })
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveCached(w, r, "recommend", req.cacheKey(), s.fastRecommend(req), func(ctx context.Context) ([]byte, error) {
		resp, err := s.evalRecommend(req)
		if err != nil {
			return nil, err
		}
		// ctx, not the handler's request: a background surrogate refresh
		// reuses this closure with an untraced context.
		rt := requestTraceFrom(ctx)
		rt.attachSolver(0, resp.IMe, 0, 0)
		rt.attachSolver(0, resp.ScaLAPACK, 0, 0)
		return marshalStage(ctx, resp)
	})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	req, err := parseStage(r, func() (PredictRequest, error) { return ParsePredictRequest(r.URL.Query()) })
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveCached(w, r, "predict", req.cacheKey(), s.fastPredict(req), func(ctx context.Context) ([]byte, error) {
		resp, err := s.evalPredict(req)
		if err != nil {
			return nil, err
		}
		requestTraceFrom(ctx).attachSolver(0, resp.CellResult, resp.ComputeS, resp.ExposedCommS)
		return marshalStage(ctx, resp)
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, err := parseStage(r, func() (SweepRequest, error) { return ParseSweepRequest(r) })
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveCached(w, r, "sweep", req.cacheKey(), nil, func(ctx context.Context) ([]byte, error) {
		resp, err := s.evalSweep(ctx, req, s.runner)
		if err != nil {
			return nil, err
		}
		if rt := requestTraceFrom(ctx); rt != nil {
			// Tile the cells sequentially per algorithm track: each track
			// reads as that solver's total modelled time for the sweep.
			ends := make(map[string]float64)
			for _, c := range resp.Cells {
				ends[c.Algorithm] = rt.attachSolver(ends[c.Algorithm], c, 0, 0)
			}
		}
		return marshalStage(ctx, resp)
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.updateSLOGauges()
	var buf bytes.Buffer
	if err := s.cfg.Registry.WritePrometheus(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// updateSLOGauges mirrors the SLO report into slo_* gauges so the burn
// rates ride the normal metrics pipeline (scraped alongside everything
// else; refreshed lazily at exposition time, like the report itself).
func (s *Server) updateSLOGauges() {
	reg := s.cfg.Registry
	for _, o := range s.slo.Report().Objectives {
		reg.Gauge("slo_latency_compliance", "Cumulative fraction of requests within the latency bound.", "slo", o.Name).Set(o.LatencyCompliance)
		reg.Gauge("slo_availability", "Cumulative fraction of non-5xx responses.", "slo", o.Name).Set(o.Availability)
		reg.Gauge("slo_verdict", "Objective state: 0 ok, 1 at-risk, 2 breach.", "slo", o.Name).Set(verdictValue(o.Verdict))
		for _, win := range o.Windows {
			reg.Gauge("slo_burn_rate", "Error-budget burn rate by objective, window and budget.",
				"slo", o.Name, "window", win.Window, "budget", "latency").Set(win.LatencyBurn)
			reg.Gauge("slo_burn_rate", "Error-budget burn rate by objective, window and budget.",
				"slo", o.Name, "window", win.Window, "budget", "availability").Set(win.AvailabilityBurn)
		}
	}
}

func verdictValue(v string) float64 {
	switch v {
	case "at-risk":
		return 1
	case "breach":
		return 2
	default:
		return 0
	}
}

// VersionInfo is the body of GET /version — the same identity the
// server_build_info gauge carries as labels.
type VersionInfo struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Surrogate string `json:"surrogate"`
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	body, err := marshalBody(VersionInfo{
		Version:   Version,
		GoVersion: runtime.Version(),
		Surrogate: surrogateVersion(s.cfg.Surrogate),
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBody(w, http.StatusOK, body)
}

func (s *Server) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	body, err := marshalBody(s.ring.Snapshot())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBody(w, http.StatusOK, body)
}

func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.ring.Trace(id)
	if !ok {
		writeError(w, http.StatusNotFound, "trace "+id+" not retained (it may have aged out of the ring)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	tr.WriteChromeTrace(w)
}

func (s *Server) handleDebugSLO(w http.ResponseWriter, _ *http.Request) {
	s.updateSLOGauges()
	body, err := marshalBody(s.slo.Report())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBody(w, http.StatusOK, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "5")
		writeBody(w, http.StatusServiceUnavailable, []byte("{\"status\":\"draining\"}\n"))
		return
	}
	writeBody(w, http.StatusOK, []byte("{\"status\":\"ok\"}\n"))
}
