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

// checkParsed asserts the fuzz properties of one query route: parsing
// never panics; an accepted query has only finite floats and every
// matrix order in 1..maxOrder; and parsing it again gives the same cache
// key.
func checkParsed[Req any](t *testing.T, rt *route[Req], q url.Values) {
	t.Helper()
	req, err := rt.parseQuery(q)
	if err != nil {
		return
	}
	again, err := rt.parseQuery(q)
	if err != nil {
		t.Fatalf("query %v accepted once, then refused: %v", q, err)
	}
	if k1, k2 := rt.key(req), rt.key(again); k1 != k2 {
		t.Fatalf("query %v keyed twice differently:\n%s\n%s", q, k1, k2)
	}
	checkFields(t, reflect.ValueOf(req), q)
}

// checkFields walks a parsed request: every float must be finite and
// every field N a matrix order in 1..maxOrder.
func checkFields(t *testing.T, v reflect.Value, q url.Values) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			checkFields(t, f, q)
		case reflect.Float64:
			if x := f.Float(); math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("query %v accepted with %s = %g", q, name, x)
			}
		case reflect.Int:
			if n := f.Int(); name == "N" && (n < 1 || n > maxOrder) {
				t.Fatalf("query %v accepted with n = %d", q, n)
			}
		}
	}
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
		checkParsed(t, denseRoute, q)
		checkParsed(t, sparseRoute, q)
		checkParsed(t, predictRoute, q)
	})
}
