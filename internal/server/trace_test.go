package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// traceShapeRequests are one request of each kind a trace can take: a
// cache hit, a surrogate answer, an exact predict (compute/exposed-comm
// split under its solve span), an exact capped recommend (two solver
// tracks), a two-cell sweep (two cells tiled on one track), a schedule
// (the simulate stage and its attributes) and a parse failure.
var traceShapeRequests = []goldenRequest{
	{"exact predict", "GET", "/v1/predict?alg=ScaLAPACK&n=9997&ranks=144&nb=48&cap_w=110.5&overlap=0", ""},
	{"cache hit", "GET", "/v1/predict?alg=ScaLAPACK&n=9997&ranks=144&nb=48&cap_w=110.5&overlap=0", ""},
	{"surrogate recommend", "GET", "/v1/recommend?n=8000&ranks=144&objective=min-time", ""},
	{"exact capped recommend", "GET", "/v1/recommend?n=26000&ranks=144&objective=max-gflops-per-watt&cap_w=120", ""},
	{"sweep two cells", "POST", "/v1/sweep", `{"cells":[
		{"algorithm":"IMe","n":8640,"ranks":144},
		{"algorithm":"IMe","n":17280,"ranks":576}]}`},
	{"schedule small", "POST", "/v1/schedule", `{"seed":7,"synthetic_jobs":2,"nodes":16,"power_budget_w":15000}`},
	{"400 parse error", "GET", "/v1/recommend?n=0&ranks=144", ""},
}

// traceShape is what the trace-shape golden records of one request.
type traceShape struct {
	Name   string           `json:"name"`
	Status int              `json:"status"`
	Digest map[string]any   `json:"digest"`
	Events []map[string]any `json:"events"`
}

// TestRequestTraceShapeGolden pins what a traced request exports: every
// Chrome event of /debug/trace/{id}, in order, and the request's digest in
// /debug/requests, for each kind of request in traceShapeRequests. Wall
// times vary run to run, so ts, dur, duration_us and each stage's dur_us
// are dropped; the trace ID is masked; and each span and parent arg is
// replaced by the index of the event it names (-1 for none), which pins
// the hierarchy without pinning how IDs are numbered. A change to how
// traces are recorded that is meant to be invisible must leave
// testdata/trace_shape_golden.json untouched.
// Regenerate with: go test ./internal/server -run TestRequestTraceShapeGolden -update
func TestRequestTraceShapeGolden(t *testing.T) {
	sur, err := DefaultSurrogate()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Surrogate: sur})
	h := s.Handler()
	do := func(method, target, body string) *httptest.ResponseRecorder {
		var r io.Reader
		if body != "" {
			r = strings.NewReader(body)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, r))
		return rec
	}

	shapes := make([]traceShape, len(traceShapeRequests))
	ids := make([]string, len(traceShapeRequests))
	for i, gr := range traceShapeRequests {
		rec := do(gr.method, gr.target, gr.body)
		id, ok := telemetry.ParseTraceparent(rec.Header().Get("Traceparent"))
		if !ok {
			t.Fatalf("%s: no traceparent in the response", gr.name)
		}
		ids[i] = id
		tr := do("GET", "/debug/trace/"+id, "")
		if tr.Code != http.StatusOK {
			t.Fatalf("%s: /debug/trace: %d %s", gr.name, tr.Code, tr.Body)
		}
		shapes[i] = traceShape{Name: gr.name, Status: rec.Code, Events: normalizeEvents(t, tr.Body.Bytes(), id)}
	}

	var snap struct {
		Recent []map[string]any `json:"recent"`
	}
	if err := json.Unmarshal(do("GET", "/debug/requests", "").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	for _, d := range snap.Recent {
		for i, id := range ids {
			if d["id"] == id {
				delete(d, "duration_us")
				d["id"] = "<trace>"
				stages, _ := d["stages"].([]any)
				for _, st := range stages {
					delete(st.(map[string]any), "dur_us")
				}
				shapes[i].Digest = d
			}
		}
	}
	for _, sh := range shapes {
		if sh.Digest == nil {
			t.Fatalf("%s: no digest in /debug/requests", sh.Name)
		}
	}

	got, err := json.MarshalIndent(shapes, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	const path = "testdata/trace_shape_golden.json"
	if *updateServeGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// normalizeEvents decodes a Chrome trace with the trace ID masked, drops
// each event's wall times and replaces span and parent IDs by event
// indices.
func normalizeEvents(t *testing.T, body []byte, id string) []map[string]any {
	t.Helper()
	body = bytes.ReplaceAll(body, []byte(id), []byte("<trace>"))
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	index := map[float64]int{}
	for i, e := range doc.TraceEvents {
		if args, ok := e["args"].(map[string]any); ok {
			if span, ok := args["span"].(float64); ok {
				index[span] = i
			}
		}
	}
	for _, e := range doc.TraceEvents {
		delete(e, "ts")
		delete(e, "dur")
		args, ok := e["args"].(map[string]any)
		if !ok {
			continue
		}
		for _, k := range []string{"span", "parent"} {
			if v, ok := args[k].(float64); ok {
				if i, ok := index[v]; ok {
					args[k] = i
				} else {
					args[k] = -1
				}
			}
		}
	}
	return doc.TraceEvents
}
