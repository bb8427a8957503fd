package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/surrogate"
)

func newSurrogateServer(t *testing.T) *Server {
	t.Helper()
	p, err := surrogate.Default()
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{Surrogate: p})
}

// TestSurrogateServesRecommendColdMiss is the tentpole acceptance
// criterion: with the surrogate enabled, an on-grid cold-cache
// /v1/recommend is answered without any exact model evaluation on the
// request path, the verdict matches the exact advisor, and the warm
// repeat serves the identical bytes from cache.
func TestSurrogateServesRecommendColdMiss(t *testing.T) {
	s := newSurrogateServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	url := ts.URL + "/v1/recommend?n=8640&ranks=144&objective=min-energy"
	code, cold, _ := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("cold recommend: %d: %s", code, cold)
	}
	em := s.m.endpoint("recommend")
	if got := em.surrogate.Value(); got != 1 {
		t.Fatalf("server_surrogate_total{recommend} = %g, want 1", got)
	}
	if got := em.compute.Value(); got != 0 {
		t.Fatalf("server_compute_total{recommend} = %g, want 0", got)
	}

	var resp RecommendResponse
	if err := json.Unmarshal(cold, &resp); err != nil {
		t.Fatal(err)
	}
	want, err := core.Recommend(8640, 144, cluster.FullLoad, core.MinEnergy, perfmodel.Params{Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Best != want.Best.String() {
		t.Fatalf("surrogate recommends %q, exact advisor %q", resp.Best, want.Best)
	}

	code, warm, _ := get(t, url)
	if code != http.StatusOK || !bytes.Equal(cold, warm) {
		t.Fatalf("warm repeat: code %d, bytes equal %t", code, bytes.Equal(cold, warm))
	}
	if got := em.hits.Value(); got != 1 {
		t.Fatalf("server_cache_hits_total{recommend} = %g, want 1", got)
	}
}

// TestSurrogatePredictMatchesPredictor pins the fast path's body values
// to the predictor itself: the served cell is exactly what
// surrogate.Predict returns, marshalled once.
func TestSurrogatePredictMatchesPredictor(t *testing.T) {
	s := newSurrogateServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body, _ := get(t, ts.URL+"/v1/predict?alg=IMe&n=10000&ranks=192")
	if code != http.StatusOK {
		t.Fatalf("predict: %d: %s", code, body)
	}
	if n := s.m.endpoint("predict").compute.Value(); n != 0 {
		t.Fatalf("exact evaluations = %g, want 0", n)
	}
	p, err := surrogate.Default()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := cluster.NewConfig(192, cluster.FullLoad, cluster.MarconiA3())
	if err != nil {
		t.Fatal(err)
	}
	res, ok := p.Predict(perfmodel.IMe, 10000, cfg, perfmodel.Params{Overlap: true})
	if !ok {
		t.Fatal("n=10000 r=192 should be in envelope")
	}
	var resp PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.DurationS != res.DurationS || resp.TotalJ != res.TotalJ ||
		resp.ComputeS != res.ComputeS || resp.ExposedCommS != res.ExposedCommS {
		t.Fatalf("served %+v, predictor %+v", resp, res)
	}
}

// TestSurrogateFallsBackToExact pins the envelope boundary end to end:
// out-of-envelope requests run the exact pipeline (and count as
// fallbacks), in-envelope ones never reach it.
func TestSurrogateFallsBackToExact(t *testing.T) {
	s := newSurrogateServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	outOfEnvelope := []string{
		"/v1/recommend?n=8640&ranks=144&cap_w=120",                      // power cap untrained
		"/v1/predict?alg=IMe&n=8640&ranks=144&nb=32",                    // non-default block size
		"/v1/predict?alg=IMe&n=200&ranks=48",                            // below knot range
		"/v1/recommend?n=8640&ranks=336",                                // untrained rank count
		"/v1/predict?alg=ScaLAPACK&n=8640&ranks=48&placement=full-load", // single node
	}
	for _, path := range outOfEnvelope {
		if code, body, _ := get(t, ts.URL+path); code != http.StatusOK {
			t.Fatalf("%s: %d: %s", path, code, body)
		}
	}
	em := s.m.endpoint("recommend")
	if got := em.compute.Value() + s.m.endpoint("predict").compute.Value(); got != float64(len(outOfEnvelope)) {
		t.Fatalf("exact evaluations = %g, want %d (every request out of envelope)", got, len(outOfEnvelope))
	}
	if got := em.fallback.Value(); got != 2 {
		t.Fatalf("server_surrogate_fallback_total{recommend} = %g, want 2", got)
	}
	if got := s.m.endpoint("predict").fallback.Value(); got != 3 {
		t.Fatalf("server_surrogate_fallback_total{predict} = %g, want 3", got)
	}
}

// TestNormalizedRequestIdentity is the canonicalization property: every
// spelling of the same off-grid request — defaults omitted or explicit,
// booleans respelled, block size zero or resolved — lands on one cache
// key, so the first spelling computes once and every other serves the
// identical bytes from cache.
func TestNormalizedRequestIdentity(t *testing.T) {
	s := New(Config{}) // exact-only: the property is about keys, not engines
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Off-grid shape (n not a paper order, untrained rank multiple kept
	// in-config) spelled six equivalent ways.
	spellings := []string{
		"alg=IMe&n=9997&ranks=144",
		"alg=IMe&n=9997&ranks=144&placement=full-load",
		"alg=IMe&n=9997&ranks=144&overlap=true",
		"alg=IMe&n=9997&ranks=144&overlap=1",
		"alg=IMe&n=9997&ranks=144&nb=0",
		"alg=IMe&n=9997&ranks=144&nb=64&cap_w=0&placement=full-load&overlap=true",
	}
	var first []byte
	for i, q := range spellings {
		code, body, _ := get(t, ts.URL+"/v1/predict?"+q)
		if code != http.StatusOK {
			t.Fatalf("spelling %d (%s): %d: %s", i, q, code, body)
		}
		if i == 0 {
			first = body
			continue
		}
		if !bytes.Equal(body, first) {
			t.Fatalf("spelling %d (%s) body differs from spelling 0:\n%s\n%s", i, q, body, first)
		}
	}
	em := s.m.endpoint("predict")
	if n := em.compute.Value(); n != 1 {
		t.Fatalf("computations = %g, want exactly 1 across %d spellings", n, len(spellings))
	}
	if got := em.hits.Value(); got != float64(len(spellings)-1) {
		t.Fatalf("cache hits = %g, want %d", got, len(spellings)-1)
	}
}

// TestCacheInstrumentation pins the eviction counters and residency
// gauge end to end: distinct predict requests past CacheEntries evict
// LRU bodies (reason "capacity") while the gauge tracks residency.
func TestCacheInstrumentation(t *testing.T) {
	s := New(Config{CacheEntries: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 4; i++ {
		url := fmt.Sprintf("%s/v1/predict?alg=IMe&n=%d&ranks=48", ts.URL, 2000+i)
		if code, body, _ := get(t, url); code != http.StatusOK {
			t.Fatalf("predict %d: %d: %s", i, code, body)
		}
	}
	if got := s.cache.evictedCapacity.Value(); got != 2 {
		t.Fatalf("server_cache_evictions_total{capacity} = %g, want 2", got)
	}
	if got := s.cache.entriesGauge.Value(); got != 2 {
		t.Fatalf("server_cache_entries = %g, want 2 (at capacity)", got)
	}
	if got := s.cache.evictedExpired.Value(); got != 0 {
		t.Fatalf("server_cache_evictions_total{expired} = %g, want 0", got)
	}
}
