package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sparse"
)

const sparseQuery = "/v1/recommend?matrix=sparse&alg=CG&kind=banded&n=131072&ranks=144&band=256&cond=1e4"

// TestSparseRecommendColdWarm pins the sparse serving pipeline: a cold
// GET computes exactly once, the warm repeat is a byte-identical cache
// hit, and the surrogate stage never runs — even with a surrogate
// configured, sparse requests skip the fast path entirely (strict
// refusal), so the surrogate and fallback counters stay at zero.
func TestSparseRecommendColdWarm(t *testing.T) {
	sur, err := DefaultSurrogate()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Surrogate: sur})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, cold, _ := get(t, ts.URL+sparseQuery)
	if code != http.StatusOK {
		t.Fatalf("cold sparse recommend: %d: %s", code, cold)
	}
	code, warm, _ := get(t, ts.URL+sparseQuery)
	if code != http.StatusOK {
		t.Fatalf("warm sparse recommend: %d: %s", code, warm)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm body differs from cold:\ncold: %s\nwarm: %s", cold, warm)
	}
	em := s.m.endpoint("recommend")
	if got := em.compute.Value(); got != 1 {
		t.Fatalf("underlying sparse evaluations = %g, want exactly 1", got)
	}
	if got := em.surrogate.Value(); got != 0 {
		t.Fatalf("surrogate served %g sparse requests, want 0 (strict refusal)", got)
	}
	if got := em.fallback.Value(); got != 0 {
		t.Fatalf("surrogate fallback count = %g, want 0 (the fast path must not even run)", got)
	}
	if got := em.hits.Value(); got != 1 {
		t.Fatalf("cache hits = %g, want 1 (warm request)", got)
	}
}

// TestSparseRecommendMatchesCore pins that the served verdict is the
// core advisor's verdict, modelled at default params.
func TestSparseRecommendMatchesCore(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body, _ := get(t, ts.URL+sparseQuery)
	if code != http.StatusOK {
		t.Fatalf("sparse recommend: %d: %s", code, body)
	}
	var resp SparseRecommendResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode body: %v", err)
	}
	spec := sparse.Spec{Kind: sparse.Banded, N: 131072, Band: 256, Cond: 1e4, Seed: core.SparseSweepSeed}
	rec, _, err := core.RecommendSparseStored(sparse.CG, spec, 144, cluster.FullLoad, core.MinEnergy, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Best != rec.Best.String() {
		t.Fatalf("served best %q, core advisor says %q", resp.Best, rec.Best)
	}
	if resp.MarginPct != 100*rec.Margin {
		t.Fatalf("served margin %g%%, core advisor says %g%%", resp.MarginPct, 100*rec.Margin)
	}
	if resp.CPU.TotalJ != rec.CPU.TotalJ || resp.Accel.TotalJ != rec.Accel.TotalJ {
		t.Fatalf("served cell energies (%g, %g) differ from core (%g, %g)",
			resp.CPU.TotalJ, resp.Accel.TotalJ, rec.CPU.TotalJ, rec.Accel.TotalJ)
	}
	if resp.Accel.AccelJ <= 0 {
		t.Fatal("accelerated cell reports no accelerator energy")
	}
	if resp.CPU.AccelJ != 0 {
		t.Fatalf("CPU cell reports accelerator energy %g", resp.CPU.AccelJ)
	}
}

// TestSparseRecommendBadRequests is the error-contract table: every
// malformed or unsupported sparse request is a structured 400 — never a
// 500, never an unstructured body. Each case decodes as ErrorResponse
// with the status echoed inside and a message naming the offending
// parameter.
func TestSparseRecommendBadRequests(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name  string
		query string
		want  string // substring of the structured error message
	}{
		{"unknown matrix class", "matrix=tridiagonal&alg=CG&kind=banded&n=4096&ranks=48&band=8&cond=100",
			`unknown matrix class "tridiagonal"`},
		{"missing algorithm", "matrix=sparse&kind=banded&n=4096&ranks=48&band=8&cond=100",
			"parameter alg: required"},
		{"unknown algorithm", "matrix=sparse&alg=jacobi&kind=banded&n=4096&ranks=48&band=8&cond=100",
			`unknown algorithm "jacobi"`},
		{"missing kind", "matrix=sparse&alg=CG&n=4096&ranks=48&band=8&cond=100",
			"parameter kind: required"},
		{"unknown kind", "matrix=sparse&alg=CG&kind=toeplitz&n=4096&ranks=48&band=8&cond=100",
			`unknown matrix kind "toeplitz"`},
		{"power cap refused", "matrix=sparse&alg=CG&kind=banded&n=4096&ranks=48&band=8&cond=100&cap_w=110",
			"not cap-modelled"},
		{"condition too low", "matrix=sparse&alg=CG&kind=banded&n=4096&ranks=48&band=8&cond=1",
			"must exceed 1"},
		{"banded without band", "matrix=sparse&alg=CG&kind=banded&n=4096&ranks=48&cond=100",
			"half-bandwidth"},
		{"random without density", "matrix=sparse&alg=CG&kind=random&n=4096&ranks=48&cond=100",
			"density"},
		{"more ranks than rows", "matrix=sparse&alg=CG&kind=banded&n=96&ranks=144&band=8&cond=100",
			"exceeds the matrix order"},
		{"unknown objective", "matrix=sparse&alg=CG&kind=banded&n=4096&ranks=48&band=8&cond=100&objective=min-carbon",
			"objective"},
		{"missing n", "matrix=sparse&alg=CG&kind=banded&ranks=48&band=8&cond=100",
			"parameter n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body, _ := get(t, ts.URL+"/v1/recommend?"+tc.query)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body: %s", code, body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("error body is not structured JSON: %v: %s", err, body)
			}
			if er.Status != http.StatusBadRequest {
				t.Fatalf("body status %d, want 400", er.Status)
			}
			if !strings.Contains(er.Error, tc.want) {
				t.Fatalf("error %q does not mention %q", er.Error, tc.want)
			}
		})
	}
}

// TestSparseStoreBackedRecommend pins the store path: a cold request
// computes and persists both device cells, a fresh server over the same
// directory serves them as store hits, and every body — storeless,
// cold-store, restarted — is byte-identical.
func TestSparseStoreBackedRecommend(t *testing.T) {
	dir := t.TempDir()

	s0 := New(Config{})
	ts0 := httptest.NewServer(s0.Handler())
	defer ts0.Close()
	code, exact, _ := get(t, ts0.URL+sparseQuery)
	if code != http.StatusOK {
		t.Fatalf("storeless sparse recommend: %d: %s", code, exact)
	}

	st := openStore(t, dir)
	s1 := New(Config{Store: st})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	code, stored, _ := get(t, ts1.URL+sparseQuery)
	if code != http.StatusOK {
		t.Fatalf("store-backed sparse recommend: %d: %s", code, stored)
	}
	if !bytes.Equal(stored, exact) {
		t.Fatalf("store-backed body differs from storeless:\nstore: %s\nexact: %s", stored, exact)
	}
	if st.Len() != 2 {
		t.Fatalf("store holds %d records, want one per device (2)", st.Len())
	}
	if got := s1.storeComputed.Value(); got != 2 {
		t.Fatalf("store computed counter = %g, want 2", got)
	}

	st2 := openStore(t, dir)
	s2 := New(Config{Store: st2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	code, reread, _ := get(t, ts2.URL+sparseQuery)
	if code != http.StatusOK {
		t.Fatalf("restarted sparse recommend: %d: %s", code, reread)
	}
	if !bytes.Equal(reread, exact) {
		t.Fatal("restarted sparse recommend body differs")
	}
	if got := s2.storeHits.Value(); got != 2 {
		t.Fatalf("restarted server store hits = %g, want 2", got)
	}
	if got := s2.storeComputed.Value(); got != 0 {
		t.Fatalf("restarted server computed %g cells, want 0", got)
	}
}

// TestSparseCacheKeyDisjointFromDense pins that sparse and dense
// requests can never collide in the cache, and that the dense key shape
// is untouched by the sparse extension.
func TestSparseCacheKeyDisjointFromDense(t *testing.T) {
	shape := job{N: 8640, Ranks: 144, Placement: cluster.FullLoad}
	dense := RecommendRequest{job: shape, knobs: knobs{Overlap: true, BlockSize: 64}, Objective: core.MinEnergy}
	if got, want := dense.cacheKey(),
		"v1/recommend|n=8640|ranks=144|pl=full-load|obj=min-energy|ov=true|nb=64|cap=0"; got != want {
		t.Fatalf("dense cache key changed:\n got %s\nwant %s", got, want)
	}
	sp := SparseRecommendRequest{Algorithm: sparse.CG, Kind: sparse.Banded,
		job: shape, Objective: core.MinEnergy, Band: 256, Cond: 1e4}
	if !strings.HasPrefix(sp.cacheKey(), "v1/recommend|matrix=sparse|") {
		t.Fatalf("sparse cache key %q does not carry the matrix discriminator", sp.cacheKey())
	}
}

// TestSparseRequestRoundTrip pins parse canonicalization: the
// canonical query and equivalent spellings (case-insensitive algorithm,
// explicit defaults) produce identical requests, hence one cache entry.
func TestSparseRequestRoundTrip(t *testing.T) {
	parse := func(q string) SparseRecommendRequest {
		t.Helper()
		u, err := url.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		req, err := ParseSparseRecommendRequest(u)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		return req
	}
	canonical := parse("alg=CG&kind=banded&n=4096&ranks=48&band=8&cond=100")
	for _, q := range []string{
		"alg=cg&kind=banded&n=4096&ranks=48&band=8&cond=100",
		"alg=CG&kind=banded&n=4096&ranks=48&band=8&cond=100&objective=min-energy&placement=full-load",
		"alg=CG&kind=banded&n=4096&ranks=48&band=8&cond=1e2&cap_w=0",
	} {
		if got := parse(q); !reflect.DeepEqual(got, canonical) {
			t.Fatalf("spelling %q parsed to %+v, canonical is %+v", q, got, canonical)
		}
	}
}
