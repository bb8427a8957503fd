package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

const smallSweepBody = `{"cells":[
	{"algorithm":"IMe","n":8640,"ranks":144,"placement":"full-load"},
	{"algorithm":"ScaLAPACK","n":8640,"ranks":144,"placement":"full-load"},
	{"algorithm":"IMe","n":17280,"ranks":576,"placement":"half-load-2-sockets"},
	{"algorithm":"ScaLAPACK","n":17280,"ranks":576,"placement":"half-load-2-sockets"}]}`

// TestStoreBackedSweep pins the store-backed sweep path: computed cells
// are persisted, a fresh process serves them as store hits, and the body
// is byte-identical to a storeless server's.
func TestStoreBackedSweep(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)

	s1 := New(Config{Store: st})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	code, stored, _ := post(t, ts1.URL+"/v1/sweep", smallSweepBody)
	if code != http.StatusOK {
		t.Fatalf("store-backed sweep: %d: %s", code, stored)
	}
	if st.Len() != 4 {
		t.Fatalf("store holds %d records after sweep, want 4 (sweep must persist)", st.Len())
	}
	if got := s1.storeComputed.Value(); got != 4 {
		t.Fatalf("store computed counter = %g, want 4", got)
	}

	// Storeless reference: the store must never change bytes.
	s0 := New(Config{})
	ts0 := httptest.NewServer(s0.Handler())
	defer ts0.Close()
	code, exact, _ := post(t, ts0.URL+"/v1/sweep", smallSweepBody)
	if code != http.StatusOK {
		t.Fatalf("storeless sweep: %d: %s", code, exact)
	}
	if !bytes.Equal(stored, exact) {
		t.Fatalf("store-backed body differs from storeless:\nstore: %s\nexact: %s", stored, exact)
	}

	// A fresh process over the same directory serves every cell from the
	// store: zero computes, identical bytes.
	st2 := openStore(t, dir)
	s2 := New(Config{Store: st2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	code, reread, _ := post(t, ts2.URL+"/v1/sweep", smallSweepBody)
	if code != http.StatusOK {
		t.Fatalf("restarted sweep: %d: %s", code, reread)
	}
	if !bytes.Equal(reread, exact) {
		t.Fatal("restarted store-backed body differs from storeless body")
	}
	if got := s2.storeComputed.Value(); got != 0 {
		t.Fatalf("restarted server computed %g cells, want 0", got)
	}
	if got := s2.storeHits.Value(); got != 4 {
		t.Fatalf("restarted server store hits = %g, want 4", got)
	}
}

// TestStoreBackedRecommend pins the recommend path through the store:
// first call computes and persists both solver cells, the repeat on a
// fresh server resolves them as hits, bytes identical to storeless.
func TestStoreBackedRecommend(t *testing.T) {
	dir := t.TempDir()
	const query = "/v1/recommend?n=8640&ranks=144"

	s0 := New(Config{})
	ts0 := httptest.NewServer(s0.Handler())
	defer ts0.Close()
	code, exact, _ := get(t, ts0.URL+query)
	if code != http.StatusOK {
		t.Fatalf("storeless recommend: %d: %s", code, exact)
	}

	st := openStore(t, dir)
	s1 := New(Config{Store: st})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	code, stored, _ := get(t, ts1.URL+query)
	if code != http.StatusOK {
		t.Fatalf("store-backed recommend: %d: %s", code, stored)
	}
	if !bytes.Equal(stored, exact) {
		t.Fatalf("store-backed recommend differs from storeless:\nstore: %s\nexact: %s", stored, exact)
	}
	if st.Len() != 2 {
		t.Fatalf("store holds %d records after recommend, want 2", st.Len())
	}

	st2 := openStore(t, dir)
	s2 := New(Config{Store: st2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	code, reread, _ := get(t, ts2.URL+query)
	if code != http.StatusOK {
		t.Fatalf("restarted recommend: %d: %s", code, reread)
	}
	if !bytes.Equal(reread, exact) {
		t.Fatal("restarted recommend body differs")
	}
	if got, want := s2.storeHits.Value(), 2.0; got != want {
		t.Fatalf("restarted recommend store hits = %g, want %g", got, want)
	}
}

// TestWarmFromStore is the restart story: populate the store with the
// paper grid, boot a fresh server over it, and the very first
// {"grid":"paper"} sweep and default recommend requests are answered from
// the store with zero computes and bodies byte-identical to computed ones.
func TestWarmFromStore(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)

	s1 := New(Config{Store: st})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	code, cold, _ := post(t, ts1.URL+"/v1/sweep", `{"grid":"paper"}`)
	if code != http.StatusOK {
		t.Fatalf("cold paper sweep: %d: %s", code, cold)
	}
	code, coldRec, _ := get(t, ts1.URL+"/v1/recommend?n=8640&ranks=144")
	if code != http.StatusOK {
		t.Fatalf("cold recommend: %d: %s", code, coldRec)
	}
	cells := float64(st.Len())

	st2 := openStore(t, dir)
	s2 := New(Config{Store: st2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	code, warm, _ := post(t, ts2.URL+"/v1/sweep", `{"grid":"paper"}`)
	if code != http.StatusOK {
		t.Fatalf("restarted paper sweep: %d: %s", code, warm)
	}
	if !bytes.Equal(warm, cold) {
		t.Fatal("restarted paper sweep body differs from computed body")
	}
	if got := s2.storeHits.Value(); got != cells {
		t.Fatalf("restarted paper sweep: store hits = %g, want %g", got, cells)
	}

	code, warmRec, _ := get(t, ts2.URL+"/v1/recommend?n=8640&ranks=144")
	if code != http.StatusOK {
		t.Fatalf("restarted recommend: %d: %s", code, warmRec)
	}
	if !bytes.Equal(warmRec, coldRec) {
		t.Fatal("restarted recommend body differs from computed body")
	}
	if got := s2.storeComputed.Value(); got != 0 {
		t.Fatalf("restarted server computed %g cells over a full store, want 0", got)
	}
	if n := float64(st2.Len()); n != cells {
		t.Fatalf("store holds %g records after the restart, want %g (nothing appended)", n, cells)
	}
}

// TestWarmFromStorePartial pins that a restart over an incomplete store
// serves what it holds as store hits and computes only the missing cells
// of a paper sweep.
func TestWarmFromStorePartial(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s1 := New(Config{Store: st})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	if code, b, _ := post(t, ts1.URL+"/v1/sweep", smallSweepBody); code != http.StatusOK {
		t.Fatalf("seed sweep: %d: %s", code, b)
	}

	st2 := openStore(t, dir)
	s2 := New(Config{Store: st2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	code, partial, _ := post(t, ts2.URL+"/v1/sweep", `{"grid":"paper"}`)
	if code != http.StatusOK {
		t.Fatalf("paper sweep on partial store: %d: %s", code, partial)
	}
	if got := s2.storeHits.Value(); got != 4 {
		t.Fatalf("paper sweep on partial store: store hits = %g, want the 4 stored cells", got)
	}
	total := float64(st2.Len())
	if got := s2.storeComputed.Value(); got != total-4 {
		t.Fatalf("paper sweep on partial store computed %g cells, want the %g missing", got, total-4)
	}

	s0 := New(Config{})
	ts0 := httptest.NewServer(s0.Handler())
	defer ts0.Close()
	code, exact, _ := post(t, ts0.URL+"/v1/sweep", `{"grid":"paper"}`)
	if code != http.StatusOK {
		t.Fatalf("storeless paper sweep: %d: %s", code, exact)
	}
	if !bytes.Equal(partial, exact) {
		t.Fatal("paper sweep on partial store differs from storeless body")
	}
}

// TestStoredUnreadableCellIsReported: a record stored under the right key
// whose result does not decode — or decodes to an energy domain this
// module does not charge — is not a missing cell. A server over that
// store says so in a 422 naming the decode failure, and neither
// recomputes the cell nor appends a second record for it.
func TestStoredUnreadableCellIsReported(t *testing.T) {
	for _, c := range []struct{ name, payload, reason string }{
		{"not a number", `{"duration_s":"not a number"}`, "cannot unmarshal string"},
		{"unknown energy domain", `{"duration_s":1,"energy_j":{"PP0_ENERGY:PACKAGE0":1},"total_j":1,"engine":"analytic"}`, "PP0_ENERGY:PACKAGE0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			const query = "n=8640&ranks=144"
			q, _ := url.ParseQuery(query)
			req, err := ParseRecommendRequest(q)
			if err != nil {
				t.Fatal(err)
			}
			st := openStore(t, t.TempDir())
			e := core.Experiment{Algorithm: perfmodel.IMe, N: 8640, Ranks: 144, Placement: cluster.FullLoad}
			key, identity, err := store.KeyFor(core.AnalyticCellIdentity(e, req.params()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Append(store.Record{Key: key, Kind: core.CellKind, Identity: identity,
				Result: json.RawMessage(c.payload)}); err != nil {
				t.Fatal(err)
			}

			s := New(Config{Store: st})
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/recommend?"+query, nil))
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusUnprocessableEntity {
				t.Fatalf("code %d: %s, want 422", rec.Code, rec.Body.Bytes())
			}
			for _, want := range []string{"decode cell result", c.reason} {
				if !strings.Contains(er.Error, want) {
					t.Errorf("error %q lacks %q", er.Error, want)
				}
			}
			if n := st.Len(); n > 2 {
				t.Fatalf("store holds %d records, want the unreadable one kept, not recomputed beside it", n)
			}
		})
	}
}

// TestNegativeZeroIsOneRequest: −0 spells the same request as 0. Dense
// recommends with cap_w=0 and cap_w=-0 share one cache entry, one compute,
// one body and one pair of store records; a sweep's power_cap_w and a
// sparse density of −0 key as 0; and a −0 cap is the uncapped cell's store
// identity for every caller of the model, not only the server.
func TestNegativeZeroIsOneRequest(t *testing.T) {
	st := openStore(t, t.TempDir())
	s := New(Config{Store: st})
	h := s.Handler()
	serve := func(target string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d: %s", target, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	plus := serve("/v1/recommend?n=8640&ranks=144&cap_w=0")
	minus := serve("/v1/recommend?n=8640&ranks=144&cap_w=-0")
	if !bytes.Equal(plus, minus) {
		t.Errorf("cap_w=-0 body differs from cap_w=0:\n%s\n%s", minus, plus)
	}
	if n := s.cache.Len(); n != 1 {
		t.Errorf("%d cache entries, want 1", n)
	}
	if got := s.m.endpoint("recommend").compute.Value(); got != 1 {
		t.Errorf("%g computes, want 1", got)
	}
	if n := st.Len(); n != 2 {
		t.Errorf("store holds %d records, want the 2 cells of one recommendation", n)
	}

	sweep := func(body string) string {
		t.Helper()
		req, err := ParseSweepRequest(httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body)))
		if err != nil {
			t.Fatal(err)
		}
		return req.cacheKey()
	}
	const cell = `"cells":[{"algorithm":"IMe","n":8640,"ranks":144}]`
	if a, b := sweep(`{`+cell+`,"power_cap_w":-0}`), sweep(`{`+cell+`}`); a != b {
		t.Errorf("sweep power_cap_w -0 keys %q, 0 keys %q", a, b)
	}

	sparse := func(query string) string {
		t.Helper()
		q, _ := url.ParseQuery(query)
		req, err := ParseSparseRecommendRequest(q)
		if err != nil {
			t.Fatal(err)
		}
		return req.cacheKey()
	}
	const banded = "matrix=sparse&alg=CG&kind=banded&n=4096&ranks=48&band=8&cond=100"
	if a, b := sparse(banded+"&density=-0"), sparse(banded); a != b {
		t.Errorf("sparse density=-0 keys %q, absent keys %q", a, b)
	}

	e := core.Experiment{Algorithm: perfmodel.IMe, N: 8640, Ranks: 144, Placement: cluster.FullLoad}
	keyOf := func(capW float64) string {
		t.Helper()
		key, _, err := store.KeyFor(core.AnalyticCellIdentity(e, perfmodel.Params{PowerCapW: capW}))
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	if keyOf(math.Copysign(0, -1)) != keyOf(0) {
		t.Error("a -0 power cap has a store identity of its own")
	}
}
