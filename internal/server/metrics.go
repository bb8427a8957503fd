package server

import (
	"strconv"

	"repro/internal/telemetry"
)

// latencyBounds are the request-latency histogram buckets in seconds:
// sub-millisecond cache hits through multi-second cold paper sweeps.
var latencyBounds = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// computeEndpoints are the endpoints that run model evaluations and
// therefore carry cache/coalescer/compute series; /metrics and /healthz
// only get latency and request counts.
var computeEndpoints = []string{"recommend", "predict", "sweep", "schedule"}

// allEndpoints lists every instrumented route.
var allEndpoints = []string{"recommend", "predict", "sweep", "schedule", "metrics", "healthz"}

// metrics holds the server's pre-registered instruments. Per-(endpoint,
// code) request counters are registered lazily because the code label is
// only known at response time; the registry get-or-creates under its own
// lock, which is cheap at request granularity.
type metrics struct {
	reg          *telemetry.Registry
	httpInflight *telemetry.Gauge
	endpoints    map[string]*endpointMetrics
}

// surrogateEndpoints are the endpoints with a learned fast path (sweeps
// always take the exact grid).
var surrogateEndpoints = []string{"recommend", "predict"}

// endpointMetrics are one route's instruments; the cache/coalescer
// counters are nil (no-op) for non-compute endpoints, and the surrogate
// counters are nil for endpoints without a fast path. Together the
// surrogate/compute/hits trio labels every response's provenance:
// cache hit, surrogate fast path, or exact computation.
type endpointMetrics struct {
	latency   *telemetry.Histogram
	hits      *telemetry.Counter // responses served from the result cache
	misses    *telemetry.Counter // requests that had to go past the cache
	coalesced *telemetry.Counter // followers that shared an in-flight compute
	compute   *telemetry.Counter // underlying model evaluations actually run
	surrogate *telemetry.Counter // misses answered by the learned fast path
	fallback  *telemetry.Counter // misses the surrogate refused (exact path took over)
}

func newMetrics(reg *telemetry.Registry) *metrics {
	m := &metrics{
		reg:          reg,
		httpInflight: reg.Gauge("server_http_inflight", "HTTP requests currently being served."),
		endpoints:    make(map[string]*endpointMetrics, len(allEndpoints)),
	}
	for _, ep := range allEndpoints {
		m.endpoints[ep] = &endpointMetrics{
			latency: reg.Histogram("server_request_seconds", "Request latency by endpoint.", latencyBounds, "endpoint", ep),
		}
	}
	for _, ep := range computeEndpoints {
		e := m.endpoints[ep]
		e.hits = reg.Counter("server_cache_hits_total", "Responses served from the result cache.", "endpoint", ep)
		e.misses = reg.Counter("server_cache_misses_total", "Requests that missed the result cache.", "endpoint", ep)
		e.coalesced = reg.Counter("server_coalesced_total", "Requests that shared an in-flight identical computation.", "endpoint", ep)
		e.compute = reg.Counter("server_compute_total", "Underlying model evaluations executed.", "endpoint", ep)
	}
	for _, ep := range surrogateEndpoints {
		e := m.endpoints[ep]
		e.surrogate = reg.Counter("server_surrogate_total", "Cache misses answered by the learned surrogate fast path.", "endpoint", ep)
		e.fallback = reg.Counter("server_surrogate_fallback_total", "Cache misses the surrogate refused (out of envelope); exact path took over.", "endpoint", ep)
	}
	return m
}

// endpoint returns the instruments for a route (never nil for registered
// routes; unknown names get a fresh all-nil no-op set).
func (m *metrics) endpoint(name string) *endpointMetrics {
	if e, ok := m.endpoints[name]; ok {
		return e
	}
	return &endpointMetrics{}
}

// requests returns the counter for one (endpoint, status code) pair.
func (m *metrics) requests(endpoint string, code int) *telemetry.Counter {
	return m.reg.Counter("server_requests_total", "HTTP requests by endpoint and status code.",
		"endpoint", endpoint, "code", strconv.Itoa(code))
}

// shed returns the load-shed counter for one (endpoint, reason) pair;
// reasons are queue-full, deadline and draining.
func (m *metrics) shed(endpoint, reason string) *telemetry.Counter {
	return m.reg.Counter("server_shed_total", "Requests shed by the admission controller.",
		"endpoint", endpoint, "reason", reason)
}
