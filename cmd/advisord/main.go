// advisord serves the energy advisor over JSON HTTP — the paper's §1
// scenario ("programmers could take informed decisions to augment the
// energy efficiency of linear systems resolutions") as shared
// infrastructure rather than an in-process call:
//
//	GET  /v1/recommend     solver recommendation for a job shape
//	GET  /v1/predict       modelled energy/time/power for one solver
//	POST /v1/sweep         batched grid cells on the worker pool
//	POST /v1/schedule      fleet batch-scheduling simulation (internal/sched)
//	GET  /metrics          Prometheus exposition (with trace exemplars)
//	GET  /healthz          liveness/readiness (503 while draining)
//	GET  /version          build identity (also server_build_info)
//	GET  /debug/requests   recent / slowest / errored request digests
//	GET  /debug/trace/{id} one retained request trace (Perfetto JSON)
//	GET  /debug/slo        SLO compliance and burn rates
//
// The serving layer caches results (LRU+TTL over canonicalized
// requests), answers in-envelope recommend/predict misses from the
// learned surrogate in O(µs) (-surrogate, on by default), coalesces
// concurrent identical requests into one computation, and bounds
// admission (semaphore + bounded queue with 429/503 shedding). Every
// compute request is traced per stage under a W3C-style trace ID
// (inbound traceparent honoured) and retained in a bounded ring for
// live inspection. SIGINT/SIGTERM drains gracefully: new computations
// are refused while in-flight requests complete.
package main

import (
	"context"
	"errors"
	"flag"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		cacheEntries = flag.Int("cache-entries", 4096, "result cache capacity (bodies)")
		cacheTTL     = flag.Duration("cache-ttl", time.Hour, "result cache TTL (<0 disables expiry)")
		maxInflight  = flag.Int("max-inflight", 0, "concurrent model computations (0 = GOMAXPROCS)")
		maxQueue     = flag.Int("max-queue", 0, "admission queue bound (0 = 4x max-inflight)")
		timeout      = flag.Duration("timeout", 15*time.Second, "per-request deadline")
		workers      = flag.Int("j", 0, "sweep worker budget (0 = GOMAXPROCS)")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		useSurrogate = flag.Bool("surrogate", true, "serve in-envelope cache misses from the learned surrogate")
		storeDir     = flag.String("store", "", "experiment store directory: serve recommend/sweep cells through it and persist computed ones")
		warmFrom     = flag.Bool("warm-from-store", false, "pre-render cached response bodies from the store at startup (requires -store)")
		withPprof    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		traceRing    = flag.Int("trace-ring", 256, "retained request traces for /debug/requests (<0 disables tracing)")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat    = flag.String("log-format", "logfmt", "log encoding: logfmt or json")
	)
	flag.Parse()

	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fatalUsage(err)
	}
	format, err := telemetry.ParseLogFormat(*logFormat)
	if err != nil {
		fatalUsage(err)
	}
	logger := telemetry.NewLogger(os.Stderr, telemetry.LoggerOptions{Level: level, Format: format}).
		With("app", "advisord")

	cfg := server.Config{
		CacheEntries:   *cacheEntries,
		CacheTTL:       *cacheTTL,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		RequestTimeout: *timeout,
		SweepWorkers:   *workers,
		TraceRing:      *traceRing,
		Logger:         logger,
	}
	if *useSurrogate {
		p, err := server.DefaultSurrogate()
		if err != nil {
			logger.Error("surrogate table load failed", "err", err)
			os.Exit(1)
		}
		cfg.Surrogate = p
		logger.Info("surrogate fast path on", "table", p.Version(), "models", p.Models())
	}
	if *warmFrom && *storeDir == "" {
		fatalUsage(errors.New("-warm-from-store requires -store"))
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			logger.Error("experiment store open failed", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
		defer st.Close()
		cfg.Store = st
		logger.Info("experiment store attached", "dir", *storeDir,
			"records", st.Len(), "digest", st.Digest())
	}
	svc := server.New(cfg)
	if *warmFrom {
		logger.Info("cache warmed from store", "bodies", svc.WarmFromStore())
	}
	handler := svc.Handler()
	if *withPprof {
		// The service mux owns the API routes; mount the profiler beside
		// them so production deployments keep pprof off by default.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		logger.Info("pprof exposed", "path", "/debug/pprof/")
	}
	hs := &http.Server{Addr: *addr, Handler: handler}

	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(done)
		s := <-sig
		logger.Info("draining", "signal", s.String(), "budget", drainWait.String())
		svc.Drain() // refuse new computations; healthz flips to 503
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			logger.Error("shutdown failed", "err", err)
		}
	}()

	logger.Info("listening", "addr", *addr, "version", server.Version, "trace_ring", *traceRing)
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listen failed", "err", err)
		os.Exit(1)
	}
	<-done
	logger.Info("drained, bye")
}

func fatalUsage(err error) {
	flag.CommandLine.SetOutput(os.Stderr)
	os.Stderr.WriteString("advisord: " + err.Error() + "\n")
	flag.Usage()
	os.Exit(2)
}
