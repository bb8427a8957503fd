package server

// Observability-plane coverage: the request-trace pipeline (serving-stage
// spans + nested modelled-solver spans, exported in the Perfetto format
// the engine's own reader parses), the exemplar-bearing exposition, the
// /debug inspection endpoints, the SLO tracker wiring, and the audit
// tests pinning metric deltas on every early-return path, and the access
// log's sampling.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// getWithTraceparent fires a GET carrying an inbound traceparent header.
func getWithTraceparent(t *testing.T, url, traceparent string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), resp.Header
}

// TestComputeRequestYieldsFullTrace is the tentpole acceptance criterion:
// one compute-path /v1/predict request yields a fetchable trace holding
// every serving-stage span AND the nested modelled-solver spans with
// energy totals, valid under the engine's own Perfetto reader.
func TestComputeRequestYieldsFullTrace(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _, hdr := get(t, ts.URL+"/v1/predict?alg=IMe&n=8640&ranks=144")
	if code != http.StatusOK {
		t.Fatalf("predict: %d", code)
	}
	id, ok := telemetry.ParseTraceparent(hdr.Get("Traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q unparseable", hdr.Get("Traceparent"))
	}

	code, traceBody, _ := get(t, ts.URL+"/debug/trace/"+id)
	if code != http.StatusOK {
		t.Fatalf("trace fetch: %d: %s", code, traceBody)
	}
	spans, err := mpi.ReadChromeTrace(bytes.NewReader(traceBody))
	if err != nil {
		t.Fatalf("trace not parseable by mpi.ReadChromeTrace: %v", err)
	}

	byName := map[string]int{}
	for _, sp := range spans {
		byName[sp.Kind+"/"+sp.Name]++
	}
	for _, want := range []string{
		"stage/predict", "stage/parse", "stage/cache-lookup",
		"stage/coalesce", "stage/admission-queue", "stage/compute", "stage/marshal",
		"model/solve", "model/compute", "model/exposed-comm",
	} {
		if byName[want] == 0 {
			t.Errorf("trace missing span %s (got %v)", want, byName)
		}
	}

	// The solve span carries the energy totals as args.
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceBody, &doc); err != nil {
		t.Fatal(err)
	}
	var energy float64
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Name == "solve" {
			energy, _ = e.Args["energy_j"].(float64)
		}
	}
	if energy <= 0 {
		t.Fatal("solve span carries no positive energy_j")
	}

	// The digest agrees: same request in /debug/requests with the full
	// stage list and the same energy.
	code, reqsBody, _ := get(t, ts.URL+"/debug/requests")
	if code != http.StatusOK {
		t.Fatalf("/debug/requests: %d", code)
	}
	var snap RingSnapshot
	if err := json.Unmarshal(reqsBody, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Recent) != 1 {
		t.Fatalf("recent digests = %d, want 1", len(snap.Recent))
	}
	d := snap.Recent[0]
	if d.ID != id || d.Endpoint != "predict" || d.Status != 200 || d.Source != "compute" {
		t.Fatalf("digest = %+v", d)
	}
	if d.EnergyJ != energy {
		t.Fatalf("digest energy %g != trace energy %g", d.EnergyJ, energy)
	}
	if len(d.Stages) < 5 {
		t.Fatalf("digest stages = %+v, want the full pipeline", d.Stages)
	}
}

func TestInboundTraceparentHonoured(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want := "abcdefabcdefabcdefabcdefabcdef01"
	code, _, hdr := getWithTraceparent(t, ts.URL+"/v1/recommend?n=8640&ranks=144",
		"00-"+want+"-00000000000000ab-01")
	if code != http.StatusOK {
		t.Fatalf("recommend: %d", code)
	}
	if got, _ := telemetry.ParseTraceparent(hdr.Get("Traceparent")); got != want {
		t.Fatalf("trace id = %q, want inbound %q", got, want)
	}
	if _, ok := s.ring.Trace(want); !ok {
		t.Fatal("inbound trace ID not retained in the ring")
	}
	// A recommend trace carries both solvers' tracks.
	var buf bytes.Buffer
	tr, _ := s.ring.Trace(want)
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, track := range []string{"IMe", "ScaLAPACK"} {
		if !strings.Contains(buf.String(), fmt.Sprintf("%q", track)) {
			t.Errorf("recommend trace missing %s track", track)
		}
	}
}

func TestExemplarsReferenceRealTraces(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _, _ := get(t, ts.URL+"/v1/predict?alg=IMe&n=8640&ranks=144"); code != 200 {
		t.Fatal("predict failed")
	}
	code, metrics, _ := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	re := regexp.MustCompile(`server_request_seconds_bucket\{endpoint="predict",le="[^"]+"\} \d+ # \{trace_id="([0-9a-f]{32})"\}`)
	m := re.FindSubmatch(metrics)
	if m == nil {
		t.Fatalf("no exemplar on the predict latency histogram:\n%s", metrics)
	}
	// The exemplar's trace ID is fetchable.
	if code, body, _ := get(t, ts.URL+"/debug/trace/"+string(m[1])); code != http.StatusOK {
		t.Fatalf("exemplar trace %s not fetchable: %d %s", m[1], code, body)
	}
	// SLO gauges ride the same exposition.
	for _, want := range []string{"slo_burn_rate{", "slo_latency_compliance{", "slo_verdict{", "server_build_info{"} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestExemplarIsTheDigestLatency: a traced request's exemplar in /metrics
// and its digest in /debug/requests report one latency, timed by the same
// two clock reads.
func TestExemplarIsTheDigestLatency(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	serve := func(target string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		return rec
	}
	id, ok := telemetry.ParseTraceparent(serve("/v1/predict?alg=IMe&n=8640&ranks=144").Header().Get("Traceparent"))
	if !ok {
		t.Fatal("predict advertised no trace")
	}
	re := regexp.MustCompile(`server_request_seconds_bucket\{endpoint="predict",le="[^"]+"\} \d+ # \{trace_id="` + id + `"\} (\S+)`)
	m := re.FindSubmatch(serve("/metrics").Body.Bytes())
	if m == nil {
		t.Fatalf("no exemplar for trace %s", id)
	}
	exemplarS, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	var snap RingSnapshot
	if err := json.Unmarshal(serve("/debug/requests").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Recent) != 1 || snap.Recent[0].ID != id {
		t.Fatalf("digests = %+v, want the one predict", snap.Recent)
	}
	digestUS := snap.Recent[0].DurationUS
	if rel := math.Abs(exemplarS*1e6-digestUS) / digestUS; !(rel <= 1e-12) {
		t.Fatalf("exemplar %gs and digest %gµs differ by %g relative", exemplarS, digestUS, rel)
	}
}

func TestVersionEndpointMatchesBuildInfo(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body, _ := get(t, ts.URL+"/version")
	if code != http.StatusOK {
		t.Fatalf("/version: %d", code)
	}
	var vi VersionInfo
	if err := json.Unmarshal(body, &vi); err != nil {
		t.Fatal(err)
	}
	if vi.Version != Version || vi.GoVersion == "" || vi.Surrogate != "none" {
		t.Fatalf("version info = %+v", vi)
	}
	_, metrics, _ := get(t, ts.URL+"/metrics")
	want := fmt.Sprintf(`server_build_info{go_version=%q,surrogate="none",version=%q} 1`, vi.GoVersion, Version)
	if !strings.Contains(string(metrics), want) {
		t.Fatalf("/metrics missing %q", want)
	}
}

func TestDebugSLOConsistentWithTraffic(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 5; i++ {
		if code, _, _ := get(t, ts.URL+"/v1/predict?alg=IMe&n=8640&ranks=144"); code != 200 {
			t.Fatal("predict failed")
		}
	}
	code, body, _ := get(t, ts.URL+"/debug/slo")
	if code != http.StatusOK {
		t.Fatalf("/debug/slo: %d", code)
	}
	var rep telemetry.SLOReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Objectives) != 4 {
		t.Fatalf("objectives = %d, want 4 (recommend, predict, sweep, schedule)", len(rep.Objectives))
	}
	for _, o := range rep.Objectives {
		switch o.Name {
		case "predict":
			if o.Requests != 5 || o.Availability != 1 {
				t.Fatalf("predict SLO = %+v", o)
			}
			if len(o.Windows) == 0 {
				t.Fatal("predict SLO has no windows")
			}
		case "recommend", "sweep", "schedule":
			if o.Requests != 0 {
				t.Fatalf("%s saw traffic: %+v", o.Name, o)
			}
		default:
			t.Fatalf("unexpected objective %q", o.Name)
		}
	}
}

// TestSLOBoundsAreBucketEdges: an objective's slow count is read from the
// latency histogram's cumulative bucket at its bound, which counts exactly
// the requests within the bound only when the bound is a bucket edge.
func TestSLOBoundsAreBucketEdges(t *testing.T) {
	for _, o := range DefaultSLOs() {
		if !slices.Contains(latencyBounds, o.LatencyBoundS) {
			t.Errorf("SLO %s: latency bound %gs is not an edge of latencyBounds %v", o.Name, o.LatencyBoundS, latencyBounds)
		}
	}
}

// TestSLOCountsReadFromInstruments: the SLO report counts what the latency
// histogram and the 5xx request counters counted — slow requests by the
// objective's bound, failures by status code.
func TestSLOCountsReadFromInstruments(t *testing.T) {
	s := New(Config{})
	em := s.m.endpoint("predict")
	for _, lat := range []float64{0.001, 0.005, 0.0051, 2} {
		em.latency.ObserveWithExemplar(lat, "")
	}
	s.m.requests("predict", 200).Add(3)
	s.m.requests("predict", 503).Inc()
	for _, o := range s.slo.Report().Objectives {
		if o.Name != "predict" {
			continue
		}
		// 2 of 4 over the 5ms bound (5ms itself is within), 1 of 4 a 5xx.
		if o.Requests != 4 || o.LatencyCompliance != 0.5 || o.Availability != 0.75 {
			t.Fatalf("predict SLO = %+v", o)
		}
		return
	}
	t.Fatal("no predict objective")
}

// TestTracingOffInvariant is the satellite invariant: with tracing and
// logging disabled the served bodies are byte-identical to the default
// configuration's, and no traceparent/inspection surface appears.
func TestTracingOffInvariant(t *testing.T) {
	on := httptest.NewServer(New(Config{}).Handler())
	defer on.Close()
	off := httptest.NewServer(New(Config{TraceRing: -1}).Handler())
	defer off.Close()

	for _, path := range []string{
		"/v1/predict?alg=IMe&n=8640&ranks=144",
		"/v1/recommend?n=17280&ranks=576&objective=min-energy",
		"/v1/predict?alg=ScaLAPACK&n=8640&ranks=144", // cold
		"/v1/predict?alg=IMe&n=8640&ranks=144",       // warm (cache hit)
	} {
		codeOn, bodyOn, _ := get(t, on.URL+path)
		codeOff, bodyOff, hdrOff := get(t, off.URL+path)
		if codeOn != codeOff || !bytes.Equal(bodyOn, bodyOff) {
			t.Fatalf("%s: traced and untraced responses differ (%d vs %d)\non:  %s\noff: %s",
				path, codeOn, codeOff, bodyOn, bodyOff)
		}
		if hdrOff.Get("Traceparent") != "" {
			t.Fatalf("%s: untraced server advertised a traceparent", path)
		}
	}
	// The inspection surface reports empty, not errors.
	code, body, _ := get(t, off.URL+"/debug/requests")
	if code != http.StatusOK {
		t.Fatalf("/debug/requests off: %d", code)
	}
	var snap RingSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Recent)+len(snap.Slowest)+len(snap.Errored) != 0 {
		t.Fatalf("untraced ring not empty: %+v", snap)
	}
}

// TestEarlyReturnMetricDeltas is the satellite audit: every early-return
// path (parse 400, queue-full 429, draining 503, deadline 504) leaves
// the counters and gauges exactly where they should be — in particular
// the queue-depth gauge returns to zero after a deadline expiry.
func TestEarlyReturnMetricDeltas(t *testing.T) {
	cases := []struct {
		name       string
		code       int
		shedReason string // "" = no shed counter
		misses     float64
		coalesced  float64
		run        func(t *testing.T, s *Server, ts *httptest.Server, entered, release chan struct{}) int
	}{
		{
			name: "parse-error-400",
			code: 400,
			run: func(t *testing.T, s *Server, ts *httptest.Server, _, _ chan struct{}) int {
				code, _, _ := get(t, ts.URL+"/v1/predict?alg=IMe&n=nope&ranks=144")
				return code
			},
		},
		{
			name: "queue-full-429", code: 429, shedReason: "queue-full", misses: 3,
			run: func(t *testing.T, s *Server, ts *httptest.Server, entered, release chan struct{}) int {
				// Fill the single slot, then the single queue seat, then shed.
				first := asyncGet(ts.URL + "/v1/predict?alg=IMe&n=1000&ranks=144")
				<-entered
				second := asyncGet(ts.URL + "/v1/predict?alg=IMe&n=2000&ranks=144")
				waitQueued(t, s, 1)
				code, _, _ := get(t, ts.URL+"/v1/predict?alg=IMe&n=3000&ranks=144")
				close(release)
				<-first
				<-second
				return code
			},
		},
		{
			name: "draining-503", code: 503, shedReason: "draining", misses: 1,
			run: func(t *testing.T, s *Server, ts *httptest.Server, _, _ chan struct{}) int {
				s.Drain()
				code, _, _ := get(t, ts.URL+"/v1/predict?alg=IMe&n=1000&ranks=144")
				return code
			},
		},
		{
			name: "deadline-504", code: 504, shedReason: "deadline", misses: 2,
			run: func(t *testing.T, s *Server, ts *httptest.Server, entered, release chan struct{}) int {
				// Hold the only slot so the victim waits in the queue past
				// its (short) request deadline.
				first := asyncGet(ts.URL + "/v1/predict?alg=IMe&n=1000&ranks=144")
				<-entered
				code, _, _ := get(t, ts.URL+"/v1/predict?alg=IMe&n=2000&ranks=144")
				close(release)
				<-first
				return code
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, entered, release := blockingServer(Config{
				MaxInflight: 1, MaxQueue: 1, RequestTimeout: 250 * time.Millisecond,
			})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			if code := tc.run(t, s, ts, entered, release); code != tc.code {
				t.Fatalf("status = %d, want %d", code, tc.code)
			}
			// Give released background requests a beat to finish counting.
			deadline := time.Now().Add(2 * time.Second)
			for len(s.lim.slots) != 0 || s.lim.queued.Load() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("limiter did not settle: inflight=%d queued=%d", len(s.lim.slots), s.lim.queued.Load())
				}
				time.Sleep(time.Millisecond)
			}

			em := s.m.endpoint("predict")
			if got := s.m.requests("predict", tc.code).Value(); got != 1 {
				t.Errorf("server_requests_total{%d} = %g, want 1", tc.code, got)
			}
			if tc.shedReason != "" {
				if got := s.m.shed("predict", tc.shedReason).Value(); got != 1 {
					t.Errorf("server_shed_total{%s} = %g, want 1", tc.shedReason, got)
				}
			}
			if got := em.misses.Value(); got != tc.misses {
				t.Errorf("cache misses = %g, want %g", got, tc.misses)
			}
			// The failed request never shared a coalesced result.
			if got := em.coalesced.Value(); got != tc.coalesced {
				t.Errorf("coalesced = %g, want %g", got, tc.coalesced)
			}
			// Gauges are back to rest.
			if got := s.lim.queueGauge.Value(); got != 0 {
				t.Errorf("server_queue_depth = %g, want 0", got)
			}
			if got := s.lim.inflightGauge.Value(); got != 0 {
				t.Errorf("server_compute_inflight = %g, want 0", got)
			}
			// Every 5xx-class failure leaves an errored digest with the
			// response's error message.
			if tc.code >= 500 {
				snap := s.ring.Snapshot()
				if len(snap.Errored) != 1 || snap.Errored[0].Status != tc.code || snap.Errored[0].Error == "" {
					t.Errorf("errored digests = %+v, want one status-%d entry with a message", snap.Errored, tc.code)
				}
			}
		})
	}
}

// TestAccessLogSampling: the access log keeps the first 2xx record, then
// 1 in okLogSampleEvery; client errors (Warn) and server errors (Error)
// are never sampled away.
func TestAccessLogSampling(t *testing.T) {
	var logged bytes.Buffer
	s := New(Config{Logger: slog.New(slog.NewJSONHandler(&logged, nil))})
	h := s.Handler()
	serve := func(target string, n int) {
		for i := 0; i < n; i++ {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, target, nil))
		}
	}
	serve("/healthz", 250)                  // 200s: the 1st, 101st and 201st kept
	serve("/v1/recommend?n=0&ranks=144", 5) // 400s
	s.Drain()
	serve("/healthz", 5) // 503s

	levels := map[string]int{}
	dec := json.NewDecoder(&logged)
	for dec.More() {
		var rec struct{ Level, Msg string }
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		levels[rec.Level+" "+rec.Msg]++
	}
	want := map[string]int{"INFO request served": 3, "WARN request rejected": 5, "ERROR request failed": 5}
	if fmt.Sprint(levels) != fmt.Sprint(want) {
		t.Fatalf("access records by level = %v, want %v", levels, want)
	}
}
