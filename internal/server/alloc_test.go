package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"testing"

	"repro/internal/telemetry"
)

// raceEnabled reports whether the test binary was built with -race, whose
// runtime makes sync.Pool drop entries: pooled buffers (the response-body
// scratch, encoding/json's encoder state) then allocate by design and
// allocation budgets do not apply.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// allocWriter is the smallest http.ResponseWriter the handler writes to,
// so that only the server's own allocations are counted.
type allocWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *allocWriter) Header() http.Header  { return w.header }
func (w *allocWriter) WriteHeader(code int) { w.status = code }
func (w *allocWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// TestRequestAllocationBudget bounds the heap allocations of one request
// through Handler() per request class, with the surrogate on and request
// tracing at its default, each request on a key of its own. The budgets
// are the counts measured when the test was written (go1.24): the
// serve-mix benchmark's allocation bound is 1 %, about one allocation per
// request, so a serving-path change may not add a single one.
func TestRequestAllocationBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops entries under -race: allocation budgets do not apply")
	}
	sur, err := DefaultSurrogate()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Surrogate: sur})
	h := s.Handler()
	rec, pred := s.m.endpoint("recommend"), s.m.endpoint("predict")
	const runs = 100
	serve := func(target string) *allocWriter {
		w := &allocWriter{header: make(http.Header, 2)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		return w
	}
	// Fill the trace ring so every measured request also evicts a digest,
	// as in steady-state serving.
	for i := 0; i < 300; i++ {
		if w := serve(fmt.Sprintf("/v1/recommend?n=%d&ranks=576", 16000+i)); w.status != http.StatusOK {
			t.Fatalf("warm-up: status %d: %s", w.status, w.body)
		}
	}
	// hitTarget is a key the hit class was served once before measuring.
	hitTarget := func(i int) string { return fmt.Sprintf("/v1/predict?alg=ScaLAPACK&n=%d&ranks=144", 9000+i) }
	for i := 0; i <= runs; i++ {
		serve(hitTarget(i))
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		name   string
		budget float64
		code   int
		path   *telemetry.Counter // counts every request of the class
		target func(i int) string
	}{
		{"cache hit", 17, http.StatusOK, pred.hits, hitTarget},
		{"surrogate recommend", 20, http.StatusOK, rec.surrogate, func(i int) string {
			return fmt.Sprintf("/v1/recommend?n=%d&ranks=144&objective=min-time", 8000+i)
		}},
		{"surrogate predict", 21, http.StatusOK, pred.surrogate, func(i int) string {
			return fmt.Sprintf("/v1/predict?alg=IMe&n=%d&ranks=576&placement=half-load-1-socket", 17000+i)
		}},
		{"exact capped recommend", 23, http.StatusOK, rec.compute, func(i int) string {
			return fmt.Sprintf("/v1/recommend?n=%d&ranks=144&objective=max-gflops-per-watt&cap_w=%.3f", 26000+i, 120+0.5*float64(i))
		}},
		{"sparse", 25, http.StatusOK, rec.compute, func(i int) string {
			return fmt.Sprintf("/v1/recommend?matrix=sparse&alg=CG&kind=banded&n=%d&ranks=144&band=64&cond=100", 70000+i)
		}},
		{"400 parse error", 26, http.StatusBadRequest, s.m.requests("recommend", http.StatusBadRequest), func(i int) string {
			return fmt.Sprintf("/v1/recommend?n=%d&ranks=7", 8000+i)
		}},
	} {
		reqs := make([]*http.Request, runs+1)
		ws := make([]*allocWriter, runs+1)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodGet, c.target(i), nil)
			ws[i] = &allocWriter{header: make(http.Header, 2)}
		}
		before := c.path.Value()
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			h.ServeHTTP(ws[next], reqs[next])
			next++
		})
		for i, w := range ws {
			if w.status != c.code {
				t.Fatalf("%s: %s: status %d, want %d: %s", c.name, reqs[i].URL, w.status, c.code, w.body)
			}
		}
		if took := c.path.Value() - before; took != runs+1 {
			t.Fatalf("%s: %g of %d requests took the class's path", c.name, took, runs+1)
		}
		t.Logf("%s: %.0f allocations per request, budget %.0f", c.name, got, c.budget)
		if got > c.budget {
			t.Errorf("%s is over its allocation budget", c.name)
		}
	}
}
