// Package server is the advisor service: a production HTTP serving layer
// over the calibrated model and the experiment grid. It turns the
// paper's motivating scenario — "programmers could take informed
// decisions to augment the energy efficiency of linear systems
// resolutions" (§1) — from an in-process call into shared
// infrastructure, the form related work (EfiMon's analyser service, the
// CEEC experience report) argues energy tooling needs to be adopted.
//
// Every compute route — dense recommend, sparse recommend
// (/v1/recommend?matrix=sparse), predict, sweep and schedule — is one
// route descriptor (parse, cache key, optional surrogate attempt,
// compute-and-render) run by one function, serve, through the same
// pipeline:
//
//	parse+canonicalize → cache → surrogate → coalesce → admit → compute
//
// where the surrogate stage (optional, Config.Surrogate; dense recommend
// and predict only) answers in-envelope misses from the learned
// predictor (internal/surrogate) in O(µs) without consuming an admission
// slot, and refuses anything outside its trained envelope so the exact
// pipeline below it remains the arbiter of every hard query. The three
// query routes share one parse of the job shape (n, ranks, placement)
// and the two recommend routes one parse of the objective.
//
// The pipeline keeps these invariants:
//
//  1. Responses are byte-identical whether served cold or from cache:
//     the cache stores the marshalled body produced by the one compute,
//     never a re-rendering. The workloads are deterministic pure
//     functions of the canonicalized request, so hits are exact.
//  2. N concurrent identical requests perform exactly one model
//     evaluation: the coalescer elects a leader, followers share its
//     result, and later arrivals hit the cache.
//  3. Admission is bounded twice — concurrent computations by a
//     semaphore, waiters by a queue cap — and excess load is shed
//     immediately (429 Retry-After) rather than queued to time out.
//     Queued waiters honour the request deadline (504).
//  4. Draining admits no new computations (503 Retry-After) while
//     in-flight requests complete.
//
// Only the leader's computation consumes an admission slot; cache hits
// and coalesced followers bypass the limiter entirely, so a hot working
// set keeps serving even when the compute slots are saturated.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/grid"
	"repro/internal/store"
	"repro/internal/surrogate"
	"repro/internal/telemetry"
)

// Config sizes the serving layer. The zero value of every field selects
// a production-reasonable default.
type Config struct {
	// CacheEntries bounds the result cache (default 4096 bodies).
	CacheEntries int
	// CacheTTL bounds how long a body stays cached (default 1h;
	// negative disables expiry — results are deterministic, the TTL
	// only bounds memory residency).
	CacheTTL time.Duration
	// MaxInflight bounds concurrent model computations (default
	// GOMAXPROCS — evaluations are CPU-bound).
	MaxInflight int
	// MaxQueue bounds computations waiting for a slot (default
	// 4×MaxInflight); beyond it requests are shed with 429.
	MaxQueue int
	// RequestTimeout is the per-request deadline covering queue wait
	// and coalesced waits (default 15s).
	RequestTimeout time.Duration
	// SweepWorkers is the grid worker budget one sweep fans out over
	// (default GOMAXPROCS).
	SweepWorkers int
	// Registry receives the server's instruments (default: a fresh
	// registry, exposed at /metrics either way).
	Registry *telemetry.Registry
	// Surrogate, when non-nil, serves in-envelope dense /v1/recommend and
	// /v1/predict cache misses from the learned predictor in O(µs),
	// bypassing admission entirely; out-of-envelope queries fall back to
	// the exact pipeline. Nil (the default) keeps every answer exact.
	Surrogate *surrogate.Predictor
	// Store, when non-nil, is the content-addressed experiment store the
	// compute endpoints resolve grid cells through: /v1/recommend and
	// /v1/sweep serve stored cells without touching the model and append
	// every cell they do compute, sharing results with campaign runs and
	// future server processes. /v1/predict keeps the exact path (its body
	// carries phase-split timings outside the stored cell schema). Stored
	// and computed bodies are byte-identical. See WarmFromStore for
	// pre-rendering cached bodies at startup.
	Store *store.Store
	// TraceRing sizes the live-inspection ring of traced requests served
	// at /debug/requests (default 256 recent digests; negative disables
	// request tracing entirely — spans, exemplars and the ring).
	TraceRing int
	// Logger receives structured access and lifecycle records (nil — the
	// default — logs nothing; instruments and traces are unaffected).
	Logger *telemetry.Logger
	// SLOs are the per-endpoint service-level objectives tracked at
	// /debug/slo and in the slo_* metrics (default: DefaultSLOs()).
	SLOs []telemetry.SLO
}

// Version identifies this serving-layer build in server_build_info and
// GET /version.
const Version = "0.7.0"

// DefaultSLOs are the serving objectives advisord ships with: point
// lookups answer from cache/surrogate/one analytic evaluation and promise
// p99 ≤ 5ms; sweeps fan a grid out over the worker pool and promise
// p99 ≤ 1s. All endpoints promise 99.9% non-5xx responses.
func DefaultSLOs() []telemetry.SLO {
	return []telemetry.SLO{
		{Name: "recommend", LatencyBoundS: 0.005, LatencyTarget: 0.99, AvailabilityTarget: 0.999},
		{Name: "predict", LatencyBoundS: 0.005, LatencyTarget: 0.99, AvailabilityTarget: 0.999},
		{Name: "sweep", LatencyBoundS: 1.0, LatencyTarget: 0.99, AvailabilityTarget: 0.999},
		{Name: "schedule", LatencyBoundS: 1.0, LatencyTarget: 0.99, AvailabilityTarget: 0.999},
	}
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.CacheTTL == 0 {
		c.CacheTTL = time.Hour
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.TraceRing == 0 {
		c.TraceRing = 256
	}
	if c.SLOs == nil {
		c.SLOs = DefaultSLOs()
	}
	return c
}

// Server is the advisor service. Construct with New; all methods are
// safe for concurrent use.
type Server struct {
	cfg      Config
	cache    *Cache
	coal     *Coalescer
	lim      *Limiter
	runner   *grid.Runner
	m        *metrics
	ring     *requestRing
	slo      *telemetry.SLOTracker
	log      *telemetry.Logger // request-level records (Warn/Error always; ok-path via okLog)
	okLog    *telemetry.Logger // sampled child for high-QPS 2xx access records
	draining atomic.Bool

	// Store-cell resolution counters (nil without Config.Store).
	storeHits     *telemetry.Counter
	storeComputed *telemetry.Counter

	// beforeCompute, when set, runs on the coalescer leader right before
	// each computation, holding its admission slot: the one seam tests
	// use to keep computations in flight. Nil outside tests.
	beforeCompute func()
}

// New returns a Server computing with the real calibrated model.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		cache:  NewCache(cfg.CacheEntries, cfg.CacheTTL),
		coal:   NewCoalescer(),
		lim:    NewLimiter(cfg.MaxInflight, cfg.MaxQueue),
		runner: grid.New(cfg.SweepWorkers),
		m:      newMetrics(cfg.Registry),
		slo:    telemetry.NewSLOTracker(cfg.SLOs, telemetry.SLOTrackerOptions{}),
		log:    cfg.Logger,
		okLog:  cfg.Logger.Sampled(okLogSampleEvery),
	}
	if cfg.TraceRing > 0 {
		s.ring = newRequestRing(cfg.TraceRing)
	}
	s.lim.inflightGauge = cfg.Registry.Gauge("server_compute_inflight", "Model computations currently holding an admission slot.")
	s.lim.queueGauge = cfg.Registry.Gauge("server_queue_depth", "Computations waiting for an admission slot.")
	s.cache.entriesGauge = cfg.Registry.Gauge("server_cache_entries", "Result-cache bodies currently resident.")
	s.cache.evictedCapacity = cfg.Registry.Counter("server_cache_evictions_total", "Result-cache bodies evicted, by reason.", "reason", "capacity")
	s.cache.evictedExpired = cfg.Registry.Counter("server_cache_evictions_total", "Result-cache bodies evicted, by reason.", "reason", "expired")
	cfg.Registry.Gauge("server_build_info", "Serving-layer build identity (value is always 1).",
		"version", Version, "go_version", runtime.Version(), "surrogate", surrogateVersion(cfg.Surrogate)).Set(1)
	if cfg.Store != nil {
		const help = "Grid cells resolved through the experiment store, by outcome."
		s.storeHits = cfg.Registry.Counter("server_store_cells_total", help, "result", "hit")
		s.storeComputed = cfg.Registry.Counter("server_store_cells_total", help, "result", "computed")
	}
	return s
}

// okLogSampleEvery is the 1-in-N keep rate for successful-response access
// records: a load run at thousands of QPS keeps the log useful instead of
// molten, while Warn/Error records always land (Logger.Sampled semantics).
const okLogSampleEvery = 100

// surrogateVersion labels the build-info gauge's surrogate dimension.
func surrogateVersion(p *surrogate.Predictor) string {
	if p == nil {
		return "none"
	}
	return p.Version()
}

// Registry returns the registry backing /metrics.
func (s *Server) Registry() *telemetry.Registry { return s.cfg.Registry }

// SLOReport returns the current SLO verdicts (the /debug/slo body).
func (s *Server) SLOReport() telemetry.SLOReport { return s.slo.Report() }

// Drain puts the server into shutdown mode: /healthz flips to 503, new
// computations are refused with 503 Retry-After, and in-flight requests
// (and cache hits, which cost nothing) keep completing. Pair with
// http.Server.Shutdown, which stops accepting connections and waits for
// handlers to return.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the service's routed handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /v1/recommend", s.instrument("recommend", s.handleRecommend))
	mux.Handle("GET /v1/predict", s.instrument("predict", handle(s, predictRoute)))
	mux.Handle("POST /v1/sweep", s.instrument("sweep", handle(s, sweepRoute)))
	mux.Handle("POST /v1/schedule", s.instrument("schedule", handle(s, scheduleRoute)))
	mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	// The inspection plane is served outside instrument(): debugging
	// traffic must not perturb the serving metrics, traces or SLOs it
	// reports on.
	mux.HandleFunc("GET /version", s.handleVersion)
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /debug/trace/{id}", s.handleDebugTrace)
	mux.HandleFunc("GET /debug/slo", s.handleDebugSLO)
	return mux
}

// route describes one compute route to the pipeline: how its request is
// parsed (from the URL query or from the body: exactly one parser is
// set) and keyed, its surrogate attempt (nil for routes the surrogate
// does not cover), and the exact compute, which renders the final body.
type route[Req any] struct {
	endpoint   string // metrics, SLO and trace label
	parseQuery func(url.Values) (Req, error)
	parseBody  func(*http.Request) (Req, error)
	key        func(Req) string
	fast       func(*Server, Req) ([]byte, bool)
	compute    func(*Server, context.Context, Req) ([]byte, error)
}

// The five compute routes.
var (
	denseRoute = &route[RecommendRequest]{
		endpoint:   "recommend",
		parseQuery: ParseRecommendRequest,
		key:        RecommendRequest.cacheKey,
		fast:       (*Server).fastRecommend,
		compute:    (*Server).computeRecommend,
	}
	sparseRoute = &route[SparseRecommendRequest]{
		endpoint:   "recommend",
		parseQuery: ParseSparseRecommendRequest,
		key:        SparseRecommendRequest.cacheKey,
		compute:    (*Server).computeSparse,
	}
	predictRoute = &route[PredictRequest]{
		endpoint:   "predict",
		parseQuery: ParsePredictRequest,
		key:        PredictRequest.cacheKey,
		fast:       (*Server).fastPredict,
		compute:    (*Server).computePredict,
	}
	sweepRoute = &route[SweepRequest]{
		endpoint:  "sweep",
		parseBody: ParseSweepRequest,
		key:       SweepRequest.cacheKey,
		compute:   (*Server).computeSweep,
	}
	scheduleRoute = &route[ScheduleRequest]{
		endpoint:  "schedule",
		parseBody: ParseScheduleRequest,
		key:       ScheduleRequest.cacheKey,
		compute:   (*Server).computeSchedule,
	}
)

// handle returns the handler serving one route.
func handle[Req any](s *Server, rt *route[Req]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { serve(s, rt, w, r, nil) }
}

// handleRecommend picks the recommend route by the matrix parameter: the
// dense and sparse request families have disjoint parameter sets,
// cache-key shapes and response bodies. Absent or "dense" is the dense
// route.
func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	switch m := q.Get("matrix"); m {
	case "", "dense":
		serve(s, denseRoute, w, r, q)
	case "sparse":
		serve(s, sparseRoute, w, r, q)
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("parameter matrix: unknown matrix class %q (want dense or sparse)", m))
	}
}

// serve runs one request through the pipeline and writes the response;
// every compute route goes through here. q is the request's parsed URL
// query, or nil to parse it here when the route reads one. A parse
// failure is a 400; otherwise cache → surrogate → coalesce → admit →
// compute. The surrogate attempt answers in-envelope misses in O(µs)
// with no admission slot (concurrent identical requests may each run it
// — the bytes are deterministic, so the duplicated nanoseconds are
// cheaper than a singleflight rendezvous). The compute runs at most once
// across all concurrent identical requests.
func serve[Req any](s *Server, rt *route[Req], w http.ResponseWriter, r *http.Request, q url.Values) {
	ctx := r.Context()
	tr := requestTraceFrom(ctx)

	sp := tr.stage("parse")
	var req Req
	var err error
	if rt.parseQuery != nil {
		if q == nil {
			q = r.URL.Query()
		}
		req, err = rt.parseQuery(q)
	} else {
		req, err = rt.parseBody(r)
	}
	sp.SetAttr("ok", err == nil)
	sp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := rt.key(req)
	em := s.m.endpoint(rt.endpoint)

	sp = tr.stage("cache-lookup")
	body, ok := s.cache.Get(key)
	sp.SetAttr("hit", ok)
	sp.End()
	if ok {
		em.hits.Inc()
		tr.setSource("cache")
		writeBody(w, http.StatusOK, body)
		return
	}
	em.misses.Inc()
	if rt.fast != nil && s.cfg.Surrogate != nil {
		sp := tr.stage("surrogate")
		body, ok := rt.fast(s, req)
		sp.SetAttr("in_envelope", ok)
		sp.End()
		if ok {
			em.surrogate.Inc()
			tr.setSource("surrogate")
			s.cache.Put(key, body)
			writeBody(w, http.StatusOK, body)
			return
		}
		em.fallback.Inc()
	}
	coalesce := tr.stage("coalesce")
	body, shared, err := s.coal.Do(ctx, key, func() ([]byte, error) {
		// This closure runs on the coalescer leader's goroutine only, so
		// tr here is the leader's own trace.
		if s.draining.Load() {
			return nil, ErrDraining
		}
		admit := tr.stage("admission-queue")
		err := s.lim.Acquire(ctx)
		admit.End()
		if err != nil {
			return nil, err
		}
		defer s.lim.Release()
		em.compute.Inc()
		tr.setSource("compute")
		cs := tr.stage("compute")
		if tr != nil {
			tr.compute = cs
		}
		if s.beforeCompute != nil {
			s.beforeCompute()
		}
		b, err := rt.compute(s, ctx, req)
		cs.End()
		if err != nil {
			return nil, err
		}
		s.cache.Put(key, b)
		return b, nil
	})
	coalesce.SetAttr("shared", shared)
	coalesce.End()
	if shared {
		em.coalesced.Inc()
		tr.setSource("coalesced")
	}
	if err != nil {
		tr.setSource("error")
		s.writeComputeError(w, rt.endpoint, err)
		return
	}
	writeBody(w, http.StatusOK, body)
}

// writeComputeError maps pipeline failures onto shedding semantics:
// bounded-queue overflow is 429 (come back soon — the queue drains at
// compute speed), draining is 503 (come back after the deploy), an
// expired deadline is 504, and a model-evaluation error is 422 (the
// request parsed but names an infeasible job shape, e.g. an IMe rank
// count that is not a perfect square).
func (s *Server) writeComputeError(w http.ResponseWriter, endpoint string, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		s.m.shed(endpoint, "queue-full").Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "admission queue full")
	case errors.Is(err, ErrDraining):
		s.m.shed(endpoint, "draining").Inc()
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.m.shed(endpoint, "deadline").Inc()
		writeError(w, http.StatusGatewayTimeout, "request deadline exceeded")
	default:
		writeError(w, http.StatusUnprocessableEntity, "model evaluation failed: "+err.Error())
	}
}
