package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/store"
	"repro/internal/telemetry"
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
// paper grid, boot a fresh server, warm it, and the very first
// {"grid":"paper"} sweep and default recommend requests are cache hits
// with bodies byte-identical to computed ones.
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

	st2 := openStore(t, dir)
	s2 := New(Config{Store: st2})
	// 1 paper-sweep body + 36 default-objective recommend shapes.
	if warmed := s2.WarmFromStore(); warmed != 37 {
		t.Fatalf("WarmFromStore warmed %d bodies, want 37", warmed)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	code, warm, _ := post(t, ts2.URL+"/v1/sweep", `{"grid":"paper"}`)
	if code != http.StatusOK {
		t.Fatalf("warm paper sweep: %d: %s", code, warm)
	}
	if !bytes.Equal(warm, cold) {
		t.Fatal("warmed paper sweep body differs from computed body")
	}
	if hits := s2.m.endpoint("sweep").hits.Value(); hits != 1 {
		t.Fatalf("first paper sweep after warm: cache hits = %g, want 1", hits)
	}
	if computes := s2.m.endpoint("sweep").compute.Value(); computes != 0 {
		t.Fatalf("warm server ran %g sweep computations, want 0", computes)
	}

	code, warmRec, _ := get(t, ts2.URL+"/v1/recommend?n=8640&ranks=144")
	if code != http.StatusOK {
		t.Fatalf("warm recommend: %d: %s", code, warmRec)
	}
	if !bytes.Equal(warmRec, coldRec) {
		t.Fatal("warmed recommend body differs from computed body")
	}
	if hits := s2.m.endpoint("recommend").hits.Value(); hits != 1 {
		t.Fatalf("first recommend after warm: cache hits = %g, want 1", hits)
	}
}

// TestWarmFromStorePartial pins that an incomplete store warms only what
// it fully holds: per-shape recommend bodies, never a partial paper
// sweep.
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
	// Two complete (n, ranks, placement) shapes → two recommend bodies;
	// the paper sweep stays unwarmed with 68 cells missing.
	if warmed := s2.WarmFromStore(); warmed != 2 {
		t.Fatalf("WarmFromStore warmed %d bodies on a partial store, want 2", warmed)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if code, b, _ := post(t, ts2.URL+"/v1/sweep", `{"grid":"paper"}`); code != http.StatusOK {
		t.Fatalf("paper sweep on partial store: %d: %s", code, b)
	}
	if hits := s2.m.endpoint("sweep").hits.Value(); hits != 0 {
		t.Fatalf("paper sweep on partial store was a cache hit (%g), want miss", hits)
	}
}

// TestWarmFromStoreReportsUnreadableCell: a record that is stored under
// the right key but whose result does not decode — or decodes to an energy
// domain this module does not charge — is not a missing cell. Warming
// still skips its shape, and says why, once.
func TestWarmFromStoreReportsUnreadableCell(t *testing.T) {
	for _, c := range []struct{ name, payload, reason string }{
		{"not a number", `{"duration_s":"not a number"}`, "cannot unmarshal string"},
		{"unknown energy domain", `{"duration_s":1,"energy_j":{"PP0_ENERGY:PACKAGE0":1},"total_j":1,"engine":"analytic"}`, "PP0_ENERGY:PACKAGE0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := openStore(t, t.TempDir())
			prm := paperSweepRequest().params()
			e := core.Experiment{Algorithm: perfmodel.IMe, N: 8640, Ranks: 144, Placement: cluster.FullLoad}
			key, identity, err := store.KeyFor(core.AnalyticCellIdentity(e, prm))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Append(store.Record{Key: key, Kind: core.CellKind, Identity: identity,
				Result: json.RawMessage(c.payload)}); err != nil {
				t.Fatal(err)
			}
			e.Algorithm = perfmodel.ScaLAPACK
			if _, _, err := core.RunAnalyticStored(e, prm, st); err != nil {
				t.Fatal(err)
			}

			var logged bytes.Buffer
			s := New(Config{Store: st, Logger: telemetry.NewLogger(&logged, telemetry.LoggerOptions{})})
			if warmed := s.WarmFromStore(); warmed != 0 {
				t.Fatalf("WarmFromStore warmed %d bodies from a shape with an unreadable cell, want 0", warmed)
			}
			lines := strings.Split(strings.TrimSpace(logged.String()), "\n")
			if len(lines) != 1 {
				t.Fatalf("want exactly one log line, got %d:\n%s", len(lines), logged.String())
			}
			for _, want := range []string{"level=warn", "unreadable", "alg=IMe", "n=8640", "ranks=144", "placement=full-load", "decode cell result", c.reason} {
				if !strings.Contains(lines[0], want) {
					t.Errorf("log line lacks %q: %s", want, lines[0])
				}
			}
		})
	}
}

// TestWarmFromStoreWithoutStore is a no-op, not a panic.
func TestWarmFromStoreWithoutStore(t *testing.T) {
	if warmed := New(Config{}).WarmFromStore(); warmed != 0 {
		t.Fatalf("WarmFromStore without a store warmed %d bodies, want 0", warmed)
	}
}
