package server

import (
	"strconv"
	"sync/atomic"

	"repro/internal/telemetry"
)

// latencyBounds are the request-latency histogram buckets in seconds:
// sub-millisecond cache hits through multi-second cold paper sweeps.
var latencyBounds = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// computeEndpoints are the endpoints that run model evaluations and
// therefore carry memo (cache, coalesced) and compute series; /metrics
// and /healthz only get latency and request counts.
var computeEndpoints = []string{"recommend", "predict", "sweep", "schedule"}

// allEndpoints lists every instrumented route.
var allEndpoints = []string{"recommend", "predict", "sweep", "schedule", "metrics", "healthz"}

// metrics holds the server's pre-registered instruments. Per-(endpoint,
// code) request counters are registered lazily because the code label is
// only known at response time, so /metrics shows exactly the codes that
// were served; each is resolved through the registry once and read from
// its endpoint's instruments after that.
type metrics struct {
	reg          *telemetry.Registry
	httpInflight *telemetry.Gauge
	endpoints    map[string]*endpointMetrics
}

// surrogateEndpoints are the endpoints with a learned fast path (sweeps
// always take the exact grid).
var surrogateEndpoints = []string{"recommend", "predict"}

// endpointMetrics are one route's instruments; the memo counters are
// nil (no-op) for non-compute endpoints, and the surrogate counters are
// nil for endpoints without a fast path. Together the
// surrogate/compute/hits trio labels every response's provenance:
// cache hit, surrogate fast path, or exact computation.
type endpointMetrics struct {
	latency   *telemetry.Histogram
	hits      *telemetry.Counter // responses served from the result cache
	misses    *telemetry.Counter // requests that had to go past the cache
	coalesced *telemetry.Counter // misses that shared the leader's compute, in flight or stored
	compute   *telemetry.Counter // underlying model evaluations actually run
	surrogate *telemetry.Counter // misses answered by the learned fast path
	fallback  *telemetry.Counter // misses the surrogate refused (exact path took over)
	// requests holds the server_requests_total counter of each status
	// code served so far, indexed by code − minCode.
	requests [maxCode - minCode + 1]atomic.Pointer[telemetry.Counter]
}

// The status codes endpointMetrics.requests resolves once; a code outside
// them (none is served) is looked up in the registry every time.
const (
	minCode = 100
	maxCode = 599
)

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

// requests returns the counter for one (endpoint, status code) pair,
// registering it on first use.
func (m *metrics) requests(endpoint string, code int) *telemetry.Counter {
	e, ok := m.endpoints[endpoint]
	if !ok || code < minCode || code > maxCode {
		return m.registerRequests(endpoint, code)
	}
	slot := &e.requests[code-minCode]
	if c := slot.Load(); c != nil {
		return c
	}
	// Racing first uses both get the registry's one instrument.
	c := m.registerRequests(endpoint, code)
	slot.Store(c)
	return c
}

// failures returns how many 5xx responses the endpoint has served.
func (e *endpointMetrics) failures() uint64 {
	var n uint64
	for code := 500; code <= maxCode; code++ {
		n += uint64(e.requests[code-minCode].Load().Value())
	}
	return n
}

func (m *metrics) registerRequests(endpoint string, code int) *telemetry.Counter {
	return m.reg.Counter("server_requests_total", "HTTP requests by endpoint and status code.",
		"endpoint", endpoint, "code", strconv.Itoa(code))
}

// shed returns the load-shed counter for one (endpoint, reason) pair;
// reasons are queue-full, deadline and draining.
func (m *metrics) shed(endpoint, reason string) *telemetry.Counter {
	return m.reg.Counter("server_shed_total", "Requests shed by the admission controller.",
		"endpoint", endpoint, "reason", reason)
}
