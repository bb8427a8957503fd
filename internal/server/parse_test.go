package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
)

// TestNonFiniteFloatsRejected: NaN and ±Inf in any float query parameter
// are a 400 naming the parameter — not a 200 cached under a key of its
// own, and with a store attached not a 422 from marshalling the cell
// identity after taking an admission slot.
func TestNonFiniteFloatsRejected(t *testing.T) {
	st := openStore(t, t.TempDir())
	s := New(Config{Store: st})
	h := s.Handler()
	for _, c := range []struct{ target, param string }{
		{"/v1/recommend?n=8640&ranks=144&cap_w=%s", "cap_w"},
		{"/v1/predict?alg=IMe&n=8640&ranks=144&cap_w=%s", "cap_w"},
		{"/v1/recommend?matrix=sparse&alg=CG&kind=random&n=16384&ranks=48&density=%s&cond=100", "density"},
		{"/v1/recommend?matrix=sparse&alg=CG&kind=banded&n=16384&ranks=48&band=8&cond=%s", "cond"},
		{"/v1/recommend?matrix=sparse&alg=CG&kind=banded&n=16384&ranks=48&band=8&cond=100&cap_w=%s", "cap_w"},
	} {
		for _, v := range []string{"NaN", "nan", "Inf", "-Inf", "%2BInf", "infinity"} {
			target := fmt.Sprintf(c.target, v)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400: %s", target, rec.Code, rec.Body.Bytes())
				continue
			}
			if !strings.Contains(er.Error, "parameter "+c.param) {
				t.Errorf("%s: error %q does not name parameter %s", target, er.Error, c.param)
			}
		}
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("%d bodies cached for non-finite requests, want 0", n)
	}
	if n := st.Len(); n != 0 {
		t.Errorf("%d store records appended for non-finite requests, want 0", n)
	}
}

// checkParsed asserts the fuzz properties every route shares: parsing
// never panics; an accepted input has only finite floats and every
// matrix order in 1..maxOrder; and parsing it again gives the same cache
// key. It returns the request and whether it was accepted.
func checkParsed[Req any](t *testing.T, rt *route[Req], in string, parse func() (Req, error)) (Req, bool) {
	t.Helper()
	req, err := parse()
	if err != nil {
		return req, false
	}
	again, err := parse()
	if err != nil {
		t.Fatalf("%q accepted once, then refused: %v", in, err)
	}
	if k1, k2 := rt.key(req), rt.key(again); k1 != k2 {
		t.Fatalf("%q keyed twice differently:\n%s\n%s", in, k1, k2)
	}
	checkFields(t, reflect.ValueOf(req), in)
	return req, true
}

// checkQuery is checkParsed for a query route.
func checkQuery[Req any](t *testing.T, rt *route[Req], q url.Values) {
	t.Helper()
	checkParsed(t, rt, q.Encode(), func() (Req, error) { return rt.parseQuery(q) })
}

// checkBody is checkParsed for a body route.
func checkBody[Req any](t *testing.T, rt *route[Req], body string) (Req, bool) {
	t.Helper()
	return checkParsed(t, rt, body, func() (Req, error) {
		return rt.parseBody(httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body)))
	})
}

// checkFields walks a parsed request: every float must be finite and
// every field N a matrix order in 1..maxOrder.
func checkFields(t *testing.T, v reflect.Value, in string) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			checkFields(t, f, in)
		case reflect.Float64:
			if x := f.Float(); math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%q accepted with %s = %g", in, name, x)
			}
		case reflect.Int:
			if n := f.Int(); name == "N" && (n < 1 || n > maxOrder) {
				t.Fatalf("%q accepted with n = %d", in, n)
			}
		}
	}
}

// goldenBodies returns the serving golden's request bodies for one path.
func goldenBodies(path string) []string {
	var out []string
	for _, gr := range goldenRequests {
		if gr.method == http.MethodPost && gr.target == path {
			out = append(out, gr.body)
		}
	}
	return out
}

// FuzzParseRecommendRequest feeds raw query strings to the three query
// routes' parsers — dense recommend (ParseRecommendRequest), sparse
// recommend and predict — seeded with the serving golden's queries.
func FuzzParseRecommendRequest(f *testing.F) {
	for _, gr := range goldenRequests {
		if u, err := url.Parse(gr.target); err == nil && u.RawQuery != "" {
			f.Add(u.RawQuery)
		}
	}
	for _, raw := range []string{
		"n=8640&ranks=144&cap_w=NaN",
		"alg=IMe&n=8640&ranks=144&cap_w=-Inf",
		"matrix=sparse&alg=CG&kind=random&n=16384&ranks=48&density=1e-3&cond=Inf",
		"n=1048577&ranks=144",
		"n=-1&ranks=-48&nb=-1",
		"n=8640&ranks=144&cap_w=1e400",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // as http.Request.URL.Query does
		checkQuery(t, denseRoute, q)
		checkQuery(t, sparseRoute, q)
		checkQuery(t, predictRoute, q)
	})
}

// FuzzParseSweepRequest feeds raw bodies to ParseSweepRequest, seeded with
// the serving golden's sweeps: an accepted sweep names at most
// maxSweepCells cells, each a matrix order in 1..maxOrder.
func FuzzParseSweepRequest(f *testing.F) {
	for _, body := range goldenBodies("/v1/sweep") {
		f.Add(body)
	}
	f.Add(`{"cells":[{"algorithm":"IMe","n":0,"ranks":144}]}`)
	f.Fuzz(func(t *testing.T, body string) {
		req, ok := checkBody(t, sweepRoute, body)
		if !ok {
			return
		}
		if len(req.Cells) == 0 || len(req.Cells) > maxSweepCells {
			t.Fatalf("%q accepted with %d cells", body, len(req.Cells))
		}
		for _, c := range req.Cells {
			if c.N < 1 || c.N > maxOrder {
				t.Fatalf("%q accepted with a cell of order %d", body, c.N)
			}
		}
	})
}

// FuzzParseScheduleRequest feeds raw bodies to ParseScheduleRequest, seeded
// with the serving golden's schedules and two fleet sizes that once took
// the server down: an accepted schedule has 1..maxScheduleJobs jobs and a
// fleet of at most sched.MaxNodes.
func FuzzParseScheduleRequest(f *testing.F) {
	for _, body := range goldenBodies("/v1/schedule") {
		f.Add(body)
	}
	f.Add(`{"synthetic_jobs":1,"nodes":400000000000}`)
	f.Add(`{"synthetic_jobs":1,"nodes":9223372036854775807}`)
	f.Fuzz(func(t *testing.T, body string) {
		req, ok := checkBody(t, scheduleRoute, body)
		if !ok {
			return
		}
		if n := len(req.Workload.Jobs); n == 0 || n > maxScheduleJobs {
			t.Fatalf("%q accepted with %d jobs", body, n)
		}
		if req.Nodes < 0 || req.Nodes > sched.MaxNodes {
			t.Fatalf("%q accepted with a fleet of %d nodes", body, req.Nodes)
		}
	})
}
