package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/perfmodel"
)

// maxOrder bounds accepted matrix orders: far past the paper grid
// (34560) but small enough that one analytic evaluation stays cheap.
const maxOrder = 1 << 20

// maxSweepCells bounds one sweep request (the full paper grid is 72).
const maxSweepCells = 512

// maxSweepBody bounds the POST body size.
const maxSweepBody = 1 << 20

// job is the shape every query-driven route resolves the same way
// (parseJob): a matrix order, a rank count and the placement they run at.
type job struct {
	N         int
	Ranks     int
	Placement cluster.Placement
}

// measurement shapes one perfmodel result of the job — exact or from the
// surrogate — as the Measurement the response renderers read.
func (j job) measurement(alg perfmodel.Algorithm, cfg cluster.Config, res perfmodel.Result) core.Measurement {
	return core.Measurement{
		Experiment: core.Experiment{Algorithm: alg, N: j.N, Ranks: j.Ranks, Placement: j.Placement},
		Config:     cfg,
		DurationS:  res.DurationS,
		TotalJ:     res.TotalJ,
		EnergyJ:    res.EnergyJ,
	}
}

// knobs are the dense model's parameters, canonicalized: the block size
// is resolved, so equivalent spellings share cache keys.
type knobs struct {
	Overlap   bool
	BlockSize int
	PowerCapW float64
}

func (k knobs) params() perfmodel.Params {
	return perfmodel.Params{Overlap: k.Overlap, BlockSize: k.BlockSize, PowerCapW: k.PowerCapW}
}

// Cache keys are appended into a stack buffer, one field after another:
// "|name=value", integers in decimal, floats as fmt's %g spells them
// (strconv's shortest 'g'), enums by their String.

// keyBuf is a stack buffer every query route's key fits in.
type keyBuf [128]byte

// appendKey appends the job's key fields.
func (j job) appendKey(b []byte) []byte {
	b = append(b, "|n="...)
	b = strconv.AppendInt(b, int64(j.N), 10)
	b = append(b, "|ranks="...)
	b = strconv.AppendInt(b, int64(j.Ranks), 10)
	b = append(b, "|pl="...)
	return append(b, j.Placement.String()...)
}

// appendKey appends the knobs' key fields.
func (k knobs) appendKey(b []byte) []byte {
	b = append(b, "|ov="...)
	b = strconv.AppendBool(b, k.Overlap)
	b = append(b, "|nb="...)
	b = strconv.AppendInt(b, int64(k.BlockSize), 10)
	b = append(b, "|cap="...)
	return strconv.AppendFloat(b, k.PowerCapW, 'g', -1, 64)
}

// RecommendRequest is the canonicalized form of GET /v1/recommend:
// every field is resolved (defaults applied, block size normalized), so
// equal requests — however spelled — key the same cache entry.
type RecommendRequest struct {
	job
	knobs
	Objective core.Objective
}

func (r RecommendRequest) cacheKey() string {
	var buf keyBuf
	b := append(buf[:0], "v1/recommend"...)
	b = r.job.appendKey(b)
	b = append(b, "|obj="...)
	b = append(b, r.Objective.String()...)
	return string(r.knobs.appendKey(b))
}

// PredictRequest is the canonicalized form of GET /v1/predict.
type PredictRequest struct {
	Algorithm perfmodel.Algorithm
	job
	knobs
}

func (r PredictRequest) cacheKey() string {
	var buf keyBuf
	b := append(buf[:0], "v1/predict|alg="...)
	b = append(b, r.Algorithm.String()...)
	b = r.job.appendKey(b)
	return string(r.knobs.appendKey(b))
}

// SweepRequest is the canonicalized form of POST /v1/sweep: a batch of
// grid cells evaluated on the server's worker pool. Cell order is part
// of the request identity (responses preserve it).
type SweepRequest struct {
	Cells []core.SweepKey // resolved (algorithm, n, ranks, placement) cells
	knobs
}

func (r SweepRequest) cacheKey() string {
	b := append(make([]byte, 0, 64+32*len(r.Cells)), "v1/sweep"...)
	b = r.knobs.appendKey(b)
	for _, c := range r.Cells {
		b = append(b, '|')
		b = append(b, c.Algorithm.String()...)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(c.N), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(c.Ranks), 10)
		b = append(b, ',')
		b = append(b, c.Placement.String()...)
	}
	return string(b)
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

// appendMembers appends the cell's members into an open object (a
// PredictResponse embeds them).
func (c CellResult) appendMembers(w *bodyWriter) {
	w.String("algorithm", c.Algorithm)
	w.Int("n", c.N)
	w.Int("ranks", c.Ranks)
	w.String("placement", c.Placement)
	w.Float("duration_s", c.DurationS)
	w.Float("energy_j", c.TotalJ)
	w.Float("pkg_j", c.PkgJ)
	w.Float("dram_j", c.DramJ)
	w.Float("avg_power_w", c.AvgPowerW)
	w.Float("gflops_per_watt", c.GFlopsPerWatt)
}

func (c CellResult) appendBody(w *bodyWriter) {
	w.open('{')
	c.appendMembers(w)
	w.close('}')
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

func (r RecommendResponse) appendBody(w *bodyWriter) {
	w.open('{')
	w.Int("n", r.N)
	w.Int("ranks", r.Ranks)
	w.String("placement", r.Placement)
	w.String("objective", r.Objective)
	w.String("best", r.Best)
	w.Float("margin_pct", r.MarginPct)
	w.key("ime")
	r.IMe.appendBody(w)
	w.key("scalapack")
	r.ScaLAPACK.appendBody(w)
	w.close('}')
}

// PredictResponse is the body of GET /v1/predict.
type PredictResponse struct {
	CellResult
	ComputeS     float64 `json:"compute_s"`
	ExposedCommS float64 `json:"exposed_comm_s"`
}

func (r PredictResponse) appendBody(w *bodyWriter) {
	w.open('{')
	r.CellResult.appendMembers(w)
	w.Float("compute_s", r.ComputeS)
	w.Float("exposed_comm_s", r.ExposedCommS)
	w.close('}')
}

// SweepResponse is the body of POST /v1/sweep.
type SweepResponse struct {
	Count     int          `json:"count"`
	Overlap   bool         `json:"overlap"`
	BlockSize int          `json:"block_size"`
	PowerCapW float64      `json:"power_cap_w"`
	Cells     []CellResult `json:"cells"`
}

func (r SweepResponse) appendBody(w *bodyWriter) {
	w.open('{')
	w.Int("count", r.Count)
	w.Bool("overlap", r.Overlap)
	w.Int("block_size", r.BlockSize)
	w.Float("power_cap_w", r.PowerCapW)
	w.key("cells")
	if r.Cells == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.open('[')
		for _, c := range r.Cells {
			w.elem()
			c.appendBody(w)
		}
		w.close(']')
	}
	w.close('}')
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
		PkgJ:          m.EnergyJ.Pkg(),
		DramJ:         m.EnergyJ.Dram(),
		AvgPowerW:     m.AvgPowerW(),
		GFlopsPerWatt: m.GFlopsPerWatt(),
	}
}

// --- compute and render ---
//
// Each route's compute resolves its grid cells through Config.Store: a
// stored cell skips the model, a computed one is appended for every
// future process (advisord restarts, campaign runs, replicas sharing the
// directory). Without a store the same call is plain compute. Stored
// measurements round-trip bit for bit (internal/core/cell.go), so the body
// is the same bytes either way — invariant 1 of the serving pipeline
// extends across process restarts. /v1/predict stays outside: its body
// carries the phase-split timings that are not part of the stored cell
// schema.

func (s *Server) computeRecommend(_ context.Context, req RecommendRequest, rec *requestRecord) ([]byte, error) {
	r, computed, err := core.RecommendStored(req.N, req.Ranks, req.Placement, req.Objective, req.params(), s.cfg.Store)
	if err != nil {
		return nil, err
	}
	s.countStoreCells(computed, 2-computed)
	resp := recommendResponse(req, r)
	if rec != nil {
		rec.cells = []CellResult{resp.IMe, resp.ScaLAPACK}
	}
	return renderStage(rec, resp)
}

// recommendResponse renders a recommendation as the response body. The
// exact compute and the surrogate both build bodies through here, keeping
// them byte-identical in shape.
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

func (s *Server) computePredict(_ context.Context, req PredictRequest, rec *requestRecord) ([]byte, error) {
	cfg, err := cluster.NewConfig(req.Ranks, req.Placement, cluster.MarconiA3())
	if err != nil {
		return nil, err
	}
	res, err := perfmodel.Run(req.Algorithm, req.N, cfg, req.params())
	if err != nil {
		return nil, err
	}
	resp := predictResponse(req, cfg, res)
	if rec != nil {
		rec.cells, rec.computeS, rec.exposedS = []CellResult{resp.CellResult}, resp.ComputeS, resp.ExposedCommS
	}
	return renderStage(rec, resp)
}

// predictResponse renders one modelled cell — exact or from the
// surrogate — as the predict body.
func predictResponse(req PredictRequest, cfg cluster.Config, res perfmodel.Result) PredictResponse {
	return PredictResponse{
		CellResult:   cellResult(req.measurement(req.Algorithm, cfg, res)),
		ComputeS:     res.ComputeS,
		ExposedCommS: res.ExposedCommS,
	}
}

func (s *Server) computeSweep(ctx context.Context, req SweepRequest, rec *requestRecord) ([]byte, error) {
	prm := req.params()
	// One evaluator per request: its cells share one replay memo, which
	// lives only as long as the request.
	ev := &core.Evaluator{Store: s.cfg.Store}
	cells, err := grid.Map(s.runner, len(req.Cells), func(i int) (CellResult, error) {
		if err := ctx.Err(); err != nil {
			return CellResult{}, err
		}
		c := req.Cells[i]
		m, err := ev.Analytic(c.Experiment(), prm)
		if err != nil {
			return CellResult{}, fmt.Errorf("cell %s/%d/%d/%s: %w", c.Algorithm, c.N, c.Ranks, c.Placement, err)
		}
		return cellResult(m), nil
	})
	s.countStoreCells(ev.Counts())
	if err != nil {
		return nil, err
	}
	resp := SweepResponse{
		Count:     len(cells),
		Overlap:   req.Overlap,
		BlockSize: req.BlockSize,
		PowerCapW: req.PowerCapW,
		Cells:     cells,
	}
	if rec != nil {
		rec.cells = resp.Cells
	}
	return renderStage(rec, resp)
}

// marshalStage is the marshal stage of the bodies no appender writes.
func marshalStage(rec *requestRecord, v any) ([]byte, error) {
	t := rec.now()
	b, err := marshalBody(v)
	rec.end(stageMarshal, t)
	return b, err
}

// --- parsing ---

// queryValue parses one optional query parameter, def when absent; what
// says what the value failed to be.
func queryValue[T any](q url.Values, name string, def T, what string, parse func(string) (T, error)) (T, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	x, err := parse(v)
	if err != nil {
		return x, fmt.Errorf("parameter %s: %s: %q", name, what, v)
	}
	return x, nil
}

func queryInt(q url.Values, name string, def int) (int, error) {
	return queryValue(q, name, def, "not an integer", strconv.Atoi)
}

func queryBool(q url.Values, name string, def bool) (bool, error) {
	return queryValue(q, name, def, "not a boolean", strconv.ParseBool)
}

// queryFloat parses a float parameter. NaN and ±Inf are refused: no
// model input is meaningful there, and a non-finite value would key a
// cache entry of its own. −0 is +0, for the same reason.
func queryFloat(q url.Values, name string, def float64) (float64, error) {
	f, err := queryValue(q, name, def, "not a number", func(v string) (float64, error) { return strconv.ParseFloat(v, 64) })
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = fmt.Errorf("parameter %s: not a finite number: %q", name, q.Get(name))
	}
	return foldZero(f), err
}

// foldZero returns +0 for −0 and f otherwise.
func foldZero(f float64) float64 {
	if f == 0 {
		return 0
	}
	return f
}

// checkOrder bounds a matrix order to 1..maxOrder; what names the field.
func checkOrder(what string, n int) error {
	if n <= 0 || n > maxOrder {
		return fmt.Errorf("%s: want 1..%d, got %d", what, maxOrder, n)
	}
	return nil
}

// resolvePlacement parses a placement (full load when empty) and checks
// that ranks fit it on the modelled machine.
func resolvePlacement(ranks int, name string) (cluster.Placement, error) {
	pl := cluster.FullLoad
	if name != "" {
		var err error
		if pl, err = cluster.ParsePlacement(name); err != nil {
			return pl, err
		}
	}
	_, err := cluster.NewConfig(ranks, pl, cluster.MarconiA3())
	return pl, err
}

// parseJob resolves the job shape of a dense recommend, predict or sparse
// recommend query.
func parseJob(q url.Values) (job, error) {
	var j job
	var err error
	if j.N, err = queryInt(q, "n", 0); err != nil {
		return j, err
	}
	if err = checkOrder("parameter n", j.N); err != nil {
		return j, err
	}
	if j.Ranks, err = queryInt(q, "ranks", 0); err != nil {
		return j, err
	}
	j.Placement, err = resolvePlacement(j.Ranks, q.Get("placement"))
	return j, err
}

// parseKnobs resolves the dense model knobs of a recommend or predict
// query.
func parseKnobs(q url.Values) (knobs, error) {
	var k knobs
	var err error
	if k.Overlap, err = queryBool(q, "overlap", true); err != nil {
		return k, err
	}
	if k.BlockSize, err = queryInt(q, "nb", 0); err != nil {
		return k, err
	}
	if k.BlockSize < 0 {
		return k, fmt.Errorf("parameter nb: must be non-negative, got %d", k.BlockSize)
	}
	k.BlockSize = perfmodel.Params{BlockSize: k.BlockSize}.Normalized().BlockSize
	if k.PowerCapW, err = queryFloat(q, "cap_w", 0); err != nil {
		return k, err
	}
	if k.PowerCapW < 0 {
		return k, fmt.Errorf("parameter cap_w: must be non-negative, got %g", k.PowerCapW)
	}
	return k, nil
}

// queryObjective resolves a recommend query's objective (min-energy when
// absent).
func queryObjective(q url.Values) (core.Objective, error) {
	if v := q.Get("objective"); v != "" {
		return core.ParseObjective(v)
	}
	return core.MinEnergy, nil
}

// ParseRecommendRequest canonicalizes the query of GET /v1/recommend.
func ParseRecommendRequest(q url.Values) (RecommendRequest, error) {
	var req RecommendRequest
	var err error
	if req.job, err = parseJob(q); err != nil {
		return req, err
	}
	if req.knobs, err = parseKnobs(q); err != nil {
		return req, err
	}
	req.Objective, err = queryObjective(q)
	return req, err
}

// ParsePredictRequest canonicalizes the query of GET /v1/predict.
func ParsePredictRequest(q url.Values) (PredictRequest, error) {
	var req PredictRequest
	var err error
	if req.job, err = parseJob(q); err != nil {
		return req, err
	}
	if req.knobs, err = parseKnobs(q); err != nil {
		return req, err
	}
	v := q.Get("alg")
	if v == "" {
		return req, errors.New("parameter alg: required (IMe or ScaLAPACK)")
	}
	req.Algorithm, err = perfmodel.ParseAlgorithm(v)
	return req, err
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
	req.Overlap = wire.Overlap == nil || *wire.Overlap
	if wire.BlockSize < 0 {
		return req, fmt.Errorf("block_size: must be non-negative, got %d", wire.BlockSize)
	}
	req.BlockSize = perfmodel.Params{BlockSize: wire.BlockSize}.Normalized().BlockSize
	if wire.PowerCapW < 0 {
		return req, fmt.Errorf("power_cap_w: must be non-negative, got %g", wire.PowerCapW)
	}
	req.PowerCapW = foldZero(wire.PowerCapW)

	switch {
	case wire.Grid == "paper":
		if len(wire.Cells) > 0 {
			return req, errors.New(`grid "paper" and explicit cells are mutually exclusive`)
		}
		req.Cells = core.SweepKeys()
	case wire.Grid != "":
		return req, fmt.Errorf("grid: unknown grid %q (want \"paper\")", wire.Grid)
	case len(wire.Cells) == 0:
		return req, errors.New(`request names no work: set "cells" or "grid":"paper"`)
	case len(wire.Cells) > maxSweepCells:
		return req, fmt.Errorf("cells: %d exceeds the per-request limit %d", len(wire.Cells), maxSweepCells)
	default:
		for i, cw := range wire.Cells {
			c, err := parseSweepCell(cw)
			if err != nil {
				return req, fmt.Errorf("cells[%d]: %w", i, err)
			}
			req.Cells = append(req.Cells, c)
		}
	}
	return req, nil
}

// parseSweepCell resolves one explicit sweep cell through the same job
// checks as the query routes.
func parseSweepCell(cw sweepCellWire) (core.SweepKey, error) {
	c := core.SweepKey{N: cw.N, Ranks: cw.Ranks}
	var err error
	if c.Algorithm, err = perfmodel.ParseAlgorithm(cw.Algorithm); err != nil {
		return c, err
	}
	if err = checkOrder("n", c.N); err != nil {
		return c, err
	}
	c.Placement, err = resolvePlacement(c.Ranks, cw.Placement)
	return c, err
}

// --- handlers outside the pipeline ---

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
