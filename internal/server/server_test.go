package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
)

func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

func post(t *testing.T, url, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

// TestSweepColdWarmByteIdentical is the tentpole acceptance criterion: a
// cold POST /v1/sweep and its warm repeat return byte-identical bodies,
// the warm one from cache, with exactly one underlying model evaluation
// (pinned through the pipeline counters).
func TestSweepColdWarmByteIdentical(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"cells":[
		{"algorithm":"IMe","n":8640,"ranks":144,"placement":"full-load"},
		{"algorithm":"ScaLAPACK","n":8640,"ranks":144,"placement":"full-load"},
		{"algorithm":"IMe","n":17280,"ranks":576,"placement":"half-load-2-sockets"},
		{"algorithm":"ScaLAPACK","n":17280,"ranks":576,"placement":"half-load-2-sockets"}]}`
	codeCold, cold, _ := post(t, ts.URL+"/v1/sweep", body)
	if codeCold != http.StatusOK {
		t.Fatalf("cold sweep: %d: %s", codeCold, cold)
	}
	codeWarm, warm, _ := post(t, ts.URL+"/v1/sweep", body)
	if codeWarm != http.StatusOK {
		t.Fatalf("warm sweep: %d: %s", codeWarm, warm)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm body differs from cold:\ncold: %s\nwarm: %s", cold, warm)
	}
	em := s.m.endpoint("sweep")
	if got := em.compute.Value(); got != 1 {
		t.Fatalf("server_compute_total{sweep} = %g, want 1", got)
	}
	if got := em.hits.Value(); got != 1 {
		t.Fatalf("server_cache_hits_total{sweep} = %g, want 1 (warm request)", got)
	}
	if got := em.misses.Value(); got != 1 {
		t.Fatalf("server_cache_misses_total{sweep} = %g, want 1 (cold request)", got)
	}

	// The body is a faithful model readout: spot-check cell 0 against a
	// direct core.RunAnalytic call.
	var resp SweepResponse
	if err := json.Unmarshal(cold, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 4 || len(resp.Cells) != 4 {
		t.Fatalf("count = %d, cells = %d, want 4", resp.Count, len(resp.Cells))
	}
	want, err := core.RunAnalytic(core.Experiment{Algorithm: perfmodel.IMe, N: 8640, Ranks: 144, Placement: cluster.FullLoad},
		perfmodel.Params{Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cells[0].TotalJ != want.TotalJ || resp.Cells[0].DurationS != want.DurationS {
		t.Fatalf("cell 0 = %+v, want TotalJ=%g DurationS=%g", resp.Cells[0], want.TotalJ, want.DurationS)
	}
}

// TestRecommendStormSingleComputation is the load-test acceptance
// criterion: 100 concurrent identical GET /v1/recommend requests perform
// exactly one core.Recommend computation.
func TestRecommendStormSingleComputation(t *testing.T) {
	s := New(Config{MaxInflight: 4})
	// Widen the window concurrent requests race into.
	s.beforeCompute = func() { time.Sleep(50 * time.Millisecond) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 100
	url := ts.URL + "/v1/recommend?n=8640&ranks=144&objective=min-energy"
	bodies := make([][]byte, clients)
	codes := make([]int, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body differs from client 0", i)
		}
	}
	em := s.m.endpoint("recommend")
	hits, misses, coal := em.hits.Value(), em.misses.Value(), em.coalesced.Value()
	if hits+misses != clients {
		t.Fatalf("hits %g + misses %g != %d requests", hits, misses, clients)
	}
	if em.compute.Value() != 1 {
		t.Fatalf("server_compute_total{recommend} = %g, want 1", em.compute.Value())
	}
	if coal != misses-1 {
		t.Fatalf("coalesced = %g, want misses-1 = %g", coal, misses-1)
	}
}

// TestRecommendMatchesCoreAdvisor pins the serving layer to the
// in-process advisor it fronts.
func TestRecommendMatchesCoreAdvisor(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	code, body, hdr := get(t, ts.URL+"/v1/recommend?n=34560&ranks=144&objective=min-time")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	var resp RecommendResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	want, err := core.Recommend(34560, 144, cluster.FullLoad, core.MinTime, perfmodel.Params{Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Best != want.Best.String() {
		t.Fatalf("best = %q, want %q", resp.Best, want.Best)
	}
	if resp.MarginPct != 100*want.Margin {
		t.Fatalf("margin = %g, want %g", resp.MarginPct, 100*want.Margin)
	}
	if resp.IMe.TotalJ != want.IMe.TotalJ || resp.ScaLAPACK.TotalJ != want.ScaLAPACK.TotalJ {
		t.Fatalf("energies %g/%g, want %g/%g", resp.IMe.TotalJ, resp.ScaLAPACK.TotalJ, want.IMe.TotalJ, want.ScaLAPACK.TotalJ)
	}
}

// TestPredictBreakdown exercises /v1/predict's perfmodel passthrough.
func TestPredictBreakdown(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	code, body, _ := get(t, ts.URL+"/v1/predict?alg=scalapack&n=17280&ranks=576&placement=half-load-1-socket")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	cfg, err := cluster.NewConfig(576, cluster.HalfLoadOneSocket, cluster.MarconiA3())
	if err != nil {
		t.Fatal(err)
	}
	want, err := perfmodel.Run(perfmodel.ScaLAPACK, 17280, cfg, perfmodel.Params{Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Algorithm != "ScaLAPACK" || resp.TotalJ != want.TotalJ ||
		resp.ComputeS != want.ComputeS || resp.ExposedCommS != want.ExposedCommS {
		t.Fatalf("predict = %+v, want TotalJ=%g ComputeS=%g ExposedCommS=%g", resp, want.TotalJ, want.ComputeS, want.ExposedCommS)
	}
}

// TestPaperGridSweep exercises the {"grid":"paper"} expansion end to end
// on the real model (72 analytic cells on the worker pool).
func TestPaperGridSweep(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	code, body, _ := post(t, ts.URL+"/v1/sweep", `{"grid":"paper"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if want := len(core.SweepKeys()); resp.Count != want {
		t.Fatalf("count = %d, want %d", resp.Count, want)
	}
	for i, c := range resp.Cells {
		if c.TotalJ <= 0 || c.DurationS <= 0 {
			t.Fatalf("cell %d not modelled: %+v", i, c)
		}
	}
}

func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	for _, tc := range []struct{ name, method, path, body string }{
		{"missing n", "GET", "/v1/recommend?ranks=144", ""},
		{"bad ranks", "GET", "/v1/recommend?n=8640&ranks=7", ""},
		{"bad placement", "GET", "/v1/recommend?n=8640&ranks=144&placement=quarter-load", ""},
		{"bad objective", "GET", "/v1/recommend?n=8640&ranks=144&objective=min-carbon", ""},
		{"predict missing alg", "GET", "/v1/predict?n=8640&ranks=144", ""},
		{"predict bad alg", "GET", "/v1/predict?alg=LINPACK&n=8640&ranks=144", ""},
		{"sweep empty", "POST", "/v1/sweep", `{}`},
		{"sweep bad grid", "POST", "/v1/sweep", `{"grid":"galaxy"}`},
		{"sweep bad cell", "POST", "/v1/sweep", `{"cells":[{"algorithm":"IMe","n":0,"ranks":144}]}`},
		{"sweep unknown field", "POST", "/v1/sweep", `{"cellz":[]}`},
	} {
		var code int
		var body []byte
		if tc.method == "GET" {
			code, body, _ = get(t, ts.URL+tc.path)
		} else {
			code, body, _ = post(t, ts.URL+tc.path, tc.body)
		}
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, code, body)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Status != http.StatusBadRequest || er.Error == "" {
			t.Errorf("%s: malformed error body %q (%v)", tc.name, body, err)
		}
	}
}

// TestInfeasibleShapeIs422 hits a request that parses but that the model
// rejects (more ranks than unknowns).
func TestInfeasibleShapeIs422(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	code, body, _ := get(t, ts.URL+"/v1/predict?alg=IMe&n=100&ranks=144")
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%s)", code, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Status != http.StatusUnprocessableEntity {
		t.Fatalf("malformed error body %q", body)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	code, body, _ := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || string(body) != "{\"status\":\"ok\"}\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, body, _ = get(t, ts.URL+"/v1/recommend?n=8640&ranks=144"); code != http.StatusOK {
		t.Fatalf("recommend: %d %s", code, body)
	}
	code, body, hdr := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type %q", ct)
	}
	text := string(body)
	for _, series := range []string{
		"server_requests_total{",
		"server_request_seconds_bucket{",
		"server_cache_misses_total{",
		"server_compute_total{",
		"server_compute_inflight",
		"server_queue_depth",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing %q", series)
		}
	}
	if !strings.Contains(text, fmt.Sprintf("server_requests_total{code=%q,endpoint=%q} 1", "200", "recommend")) {
		t.Errorf("request counter not incremented:\n%s", text)
	}
}
