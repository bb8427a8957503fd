package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/sched"
)

func postSchedule(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/schedule", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func TestScheduleEndpoint(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"seed": 42, "synthetic_jobs": 12, "nodes": 64, "power_budget_w": 15000}`
	code, b := postSchedule(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("schedule: %d: %s", code, b)
	}
	var rep sched.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 12 || rep.Nodes != 64 || rep.PowerBudgetW != 15000 {
		t.Fatalf("report = jobs:%d nodes:%d budget:%g", len(rep.Jobs), rep.Nodes, rep.PowerBudgetW)
	}
	if rep.PeakPowerW > rep.PowerBudgetW {
		t.Fatalf("served schedule exceeds its budget: %g > %g", rep.PeakPowerW, rep.PowerBudgetW)
	}
	if rep.ScheduleDigest == "" {
		t.Fatal("no schedule digest")
	}

	// Second identical POST is a cache hit with byte-identical body.
	code2, b2 := postSchedule(t, ts.URL, body)
	if code2 != http.StatusOK || !bytes.Equal(b, b2) {
		t.Fatalf("cached body differs (code %d)", code2)
	}
	reg := metricsText(t, ts.URL)
	if !strings.Contains(reg, `server_cache_hits_total{endpoint="schedule"} 1`) {
		t.Fatal("second schedule was not a cache hit")
	}
	if !strings.Contains(reg, `server_compute_total{endpoint="schedule"} 1`) {
		t.Fatal("first schedule did not count one compute")
	}

	// An explicit job list spelling the same workload as the synthetic
	// request shares its cache entry (canonicalization).
	w := sched.Synthetic(42, 12)
	explicit, err := json.Marshal(map[string]any{
		"seed": 42, "jobs": w.Jobs, "nodes": 64, "power_budget_w": 15000.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	code3, b3 := postSchedule(t, ts.URL, string(explicit))
	if code3 != http.StatusOK || !bytes.Equal(b, b3) {
		t.Fatalf("explicit spelling of the same workload missed the cache (code %d)", code3)
	}
}

func TestScheduleEndpointErrors(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	cases := []string{
		`{}`,
		`{"synthetic_jobs": 4, "jobs": [{"n": 8640, "ranks": 144}]}`,
		`{"synthetic_jobs": 100000}`,
		`{"synthetic_jobs": 4, "nodes": -1}`,
		`{"synthetic_jobs": 4, "power_budget_w": -5}`,
		`{"synthetic_jobs": 4, "mtbf_s": -5}`,
		`{"synthetic_jobs": 4, "policy": "random"}`,
		`{"synthetic_jobs": 4, "bogus_field": 1}`,
		`not json`,
	}
	for _, body := range cases {
		if code, b := postSchedule(t, ts.URL, body); code != http.StatusBadRequest {
			t.Errorf("body %q: code %d (%s), want 400", body, code, b)
		}
	}
	// A well-formed request naming an infeasible workload is a 422.
	code, _ := postSchedule(t, ts.URL, `{"jobs": [{"n": 8640, "ranks": 100, "algorithm": "IMe"}]}`)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("infeasible workload: code %d, want 422", code)
	}
}

// TestScheduleTracingOffInvariant: request tracing must never leak into
// schedule bodies — the traced and untraced servers serve identical
// bytes.
func TestScheduleTracingOffInvariant(t *testing.T) {
	on := httptest.NewServer(New(Config{}).Handler())
	defer on.Close()
	off := httptest.NewServer(New(Config{TraceRing: -1}).Handler())
	defer off.Close()

	body := `{"seed": 7, "synthetic_jobs": 8, "nodes": 32, "mtbf_s": 20, "policy": "energy-aware"}`
	codeOn, bOn := postSchedule(t, on.URL, body)
	codeOff, bOff := postSchedule(t, off.URL, body)
	if codeOn != http.StatusOK || codeOff != http.StatusOK {
		t.Fatalf("codes: %d/%d", codeOn, codeOff)
	}
	if !bytes.Equal(bOn, bOff) {
		t.Fatal("tracing changed the schedule body")
	}
}

// TestScheduleFleetSizeBounded: a fleet size past sched.MaxNodes is a 400
// naming the bound, refused before anything sizes an allocation by it —
// not an out-of-memory kill of the whole process, nor a makeslice panic.
func TestScheduleFleetSizeBounded(t *testing.T) {
	h := New(Config{}).Handler()
	for _, c := range []struct{ name, body string }{
		{"50 GB node set", `{"synthetic_jobs":1,"nodes":400000000000}`},
		{"node set length overflows", `{"synthetic_jobs":1,"nodes":9223372036854775807}`},
		{"one past the bound", `{"synthetic_jobs":1,"nodes":65537}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(c.body)))
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusBadRequest {
				t.Fatalf("code %d: %s, want 400", rec.Code, rec.Body.Bytes())
			}
			if !strings.Contains(er.Error, "nodes") || !strings.Contains(er.Error, "65536") {
				t.Fatalf("error %q does not name the nodes bound 65536", er.Error)
			}
		})
	}
}

func metricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
