// Package server is the advisor service: a production HTTP serving layer
// over the calibrated model and the experiment grid. It turns the
// paper's motivating scenario — "programmers could take informed
// decisions to augment the energy efficiency of linear systems
// resolutions" (§1) — from an in-process call into shared
// infrastructure, the form related work (EfiMon's analyser service, the
// CEEC experience report) argues energy tooling needs to be adopted.
//
// Every compute endpoint runs the same pipeline:
//
//	parse+canonicalize → cache → surrogate → coalesce → admit → compute
//
// where the surrogate stage (optional, Config.Surrogate) answers
// in-envelope recommend/predict misses from the learned predictor
// (internal/surrogate) in O(µs) without consuming an admission slot, and
// refuses anything outside its trained envelope so the exact pipeline
// below it remains the arbiter of every hard query.
//
// with these invariants:
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
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grid"
	"repro/internal/sched"
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
	// Surrogate, when non-nil, serves in-envelope /v1/recommend and
	// /v1/predict cache misses from the learned predictor in O(µs),
	// bypassing admission entirely; out-of-envelope queries fall back to
	// the exact pipeline. Nil (the default) keeps every answer exact.
	Surrogate *surrogate.Predictor
	// SurrogateRefresh additionally schedules a background exact
	// computation after each surrogate-served miss, replacing the cached
	// body so steady-state hits converge to exact values. Off by default:
	// it trades the byte-stable cache for envelope-tight values.
	SurrogateRefresh bool
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
	cfg       Config
	cache     *Cache
	coal      *Coalescer
	lim       *Limiter
	runner    *grid.Runner
	m         *metrics
	ring      *requestRing
	slo       *telemetry.SLOTracker
	log       *telemetry.Logger // request-level records (Warn/Error always; ok-path via okLog)
	okLog     *telemetry.Logger // sampled child for high-QPS 2xx access records
	draining  atomic.Bool
	refreshWG sync.WaitGroup

	// Store-cell resolution counters (nil without Config.Store).
	storeHits     *telemetry.Counter
	storeComputed *telemetry.Counter

	// Evaluators, injectable by tests to count/delay computations; New
	// wires the real model. Handlers only reach the model through these.
	evalRecommend       func(RecommendRequest) (RecommendResponse, error)
	evalRecommendSparse func(SparseRecommendRequest) (SparseRecommendResponse, error)
	evalPredict         func(PredictRequest) (PredictResponse, error)
	evalSweep           func(ctx context.Context, req SweepRequest, r *grid.Runner) (SweepResponse, error)
	evalSchedule        func(ctx context.Context, req ScheduleRequest) (*sched.Report, error)
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
	s.evalRecommend = s.recommend
	s.evalRecommendSparse = s.recommendSparse
	s.evalPredict = evalPredict
	s.evalSweep = s.sweep
	s.evalSchedule = s.evalScheduleReal
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
	mux.Handle("GET /v1/predict", s.instrument("predict", s.handlePredict))
	mux.Handle("POST /v1/sweep", s.instrument("sweep", s.handleSweep))
	mux.Handle("POST /v1/schedule", s.instrument("schedule", s.handleSchedule))
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

// serveCached runs the cache → surrogate → coalesce → admit → compute
// pipeline for one request and writes the response. fast, when non-nil,
// is the surrogate attempt: it answers in-envelope misses in O(µs) with
// no admission slot (concurrent identical requests may each run it — the
// bytes are deterministic, so the duplicated nanoseconds are cheaper than
// a singleflight rendezvous). compute must return the final marshalled
// body; it runs at most once across all concurrent identical requests.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, endpoint, key string, fast func() ([]byte, bool), compute func(ctx context.Context) ([]byte, error)) {
	em := s.m.endpoint(endpoint)
	ctx := r.Context()
	rt := requestTraceFrom(ctx)

	sp := rt.stage("cache-lookup")
	body, ok := s.cache.Get(key)
	sp.SetAttr("hit", ok)
	sp.End()
	if ok {
		em.hits.Inc()
		rt.setSource("cache")
		writeBody(w, http.StatusOK, body)
		return
	}
	em.misses.Inc()
	if fast != nil {
		sp := rt.stage("surrogate")
		body, ok := fast()
		sp.SetAttr("in_envelope", ok)
		sp.End()
		if ok {
			em.surrogate.Inc()
			rt.setSource("surrogate")
			s.cache.Put(key, body)
			if s.cfg.SurrogateRefresh {
				s.refreshExact(endpoint, key, compute)
			}
			writeBody(w, http.StatusOK, body)
			return
		}
		em.fallback.Inc()
	}
	coalesce := rt.stage("coalesce")
	body, shared, err := s.coal.Do(ctx, key, func() ([]byte, error) {
		// This closure runs on the coalescer leader's goroutine only, so
		// rt here is the leader's own trace.
		if s.draining.Load() {
			return nil, ErrDraining
		}
		admit := rt.stage("admission-queue")
		err := s.lim.Acquire(ctx)
		admit.End()
		if err != nil {
			return nil, err
		}
		defer s.lim.Release()
		em.compute.Inc()
		rt.setSource("compute")
		cs := rt.stage("compute")
		if rt != nil {
			rt.compute = cs
		}
		b, err := compute(ctx)
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
		rt.setSource("coalesced")
	}
	if err != nil {
		rt.setSource("error")
		s.writeComputeError(w, endpoint, err)
		return
	}
	writeBody(w, http.StatusOK, body)
}

// refreshExact schedules a background exact computation for a key just
// answered by the surrogate, replacing the cached surrogate body with the
// exact one. It runs through the same coalescer key as foreground exact
// requests (so at most one computation is ever in flight per key) and
// through the limiter (so refreshes never starve interactive exact work
// of admission slots — they queue like everyone else).
func (s *Server) refreshExact(endpoint, key string, compute func(ctx context.Context) ([]byte, error)) {
	s.refreshWG.Add(1)
	go func() {
		defer s.refreshWG.Done()
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
		defer cancel()
		body, _, err := s.coal.Do(ctx, key, func() ([]byte, error) {
			if s.draining.Load() {
				return nil, ErrDraining
			}
			if err := s.lim.Acquire(ctx); err != nil {
				return nil, err
			}
			defer s.lim.Release()
			b, err := compute(ctx)
			if err != nil {
				return nil, err
			}
			return b, nil
		})
		if err != nil {
			return // shed refreshes are best-effort; the surrogate body stays
		}
		s.cache.Put(key, body)
		s.m.endpoint(endpoint).refreshed.Inc()
	}()
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
