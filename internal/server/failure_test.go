package server

// Failure-path coverage for the admission controller and drain:
//   - a request whose deadline expires while queued returns 504 with a
//     JSON error body;
//   - a request arriving with the queue at capacity returns 429 with a
//     Retry-After header;
//   - graceful drain refuses new computations with 503 while in-flight
//     requests complete (and the cache keeps serving the hot set).

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// blockingServer returns a server whose computations park, holding their
// admission slot, until release delivers (or is closed), signalling each
// entry on entered.
func blockingServer(cfg Config) (s *Server, entered chan struct{}, release chan struct{}) {
	s = New(cfg)
	entered = make(chan struct{}, 16)
	release = make(chan struct{})
	s.beforeCompute = func() {
		entered <- struct{}{}
		<-release
	}
	return s, entered, release
}

// asyncGet fires a GET and delivers its result on a channel.
type result struct {
	code int
	body []byte
	hdr  http.Header
	err  error
}

func asyncGet(url string) chan result {
	ch := make(chan result, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			ch <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		ch <- result{code: resp.StatusCode, body: b, hdr: resp.Header}
	}()
	return ch
}

func waitQueued(t *testing.T, s *Server, depth int) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for int(s.lim.queued.Load()) != depth {
		select {
		case <-deadline:
			t.Fatalf("queue depth never reached %d (at %d)", depth, int(s.lim.queued.Load()))
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestQueuedRequestTimesOutWith504(t *testing.T) {
	s, entered, release := blockingServer(Config{
		MaxInflight: 1, MaxQueue: 4, RequestTimeout: 100 * time.Millisecond,
	})
	defer close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	leader := asyncGet(ts.URL + "/v1/predict?alg=IMe&n=8640&ranks=144")
	<-entered // leader holds the only slot
	got := <-asyncGet(ts.URL + "/v1/predict?alg=IMe&n=17280&ranks=144")
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.code != http.StatusGatewayTimeout {
		t.Fatalf("queued request: status %d, want 504 (%s)", got.code, got.body)
	}
	if ct := got.hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("504 content-type %q, want application/json", ct)
	}
	var er ErrorResponse
	if err := json.Unmarshal(got.body, &er); err != nil {
		t.Fatalf("504 body not JSON: %q (%v)", got.body, err)
	}
	if er.Status != http.StatusGatewayTimeout || er.Error == "" {
		t.Fatalf("504 body = %+v", er)
	}
	if got := s.m.shed("predict", "deadline").Value(); got != 1 {
		t.Fatalf("server_shed_total{deadline} = %g, want 1", got)
	}
	release <- struct{}{} // let the leader finish cleanly
	if r := <-leader; r.err != nil || r.code != http.StatusOK {
		t.Fatalf("leader: %v %d", r.err, r.code)
	}
}

func TestFullQueueSheds429WithRetryAfter(t *testing.T) {
	s, entered, release := blockingServer(Config{
		MaxInflight: 1, MaxQueue: 1, RequestTimeout: 5 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	leader := asyncGet(ts.URL + "/v1/predict?alg=IMe&n=8640&ranks=144")
	<-entered
	queued := asyncGet(ts.URL + "/v1/predict?alg=IMe&n=17280&ranks=144")
	waitQueued(t, s, 1)

	got := <-asyncGet(ts.URL + "/v1/predict?alg=IMe&n=25920&ranks=144")
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429 (%s)", got.code, got.body)
	}
	if ra := got.hdr.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	var er ErrorResponse
	if err := json.Unmarshal(got.body, &er); err != nil || er.Status != http.StatusTooManyRequests {
		t.Fatalf("429 body = %q (%v)", got.body, err)
	}
	if got := s.m.shed("predict", "queue-full").Value(); got != 1 {
		t.Fatalf("server_shed_total{queue-full} = %g, want 1", got)
	}

	// Both admitted requests complete once unblocked.
	release <- struct{}{}
	<-entered // the queued request takes the slot and enters the evaluator
	release <- struct{}{}
	if r := <-leader; r.err != nil || r.code != http.StatusOK {
		t.Fatalf("leader: %v %d", r.err, r.code)
	}
	if r := <-queued; r.err != nil || r.code != http.StatusOK {
		t.Fatalf("queued: %v %d", r.err, r.code)
	}
}

func TestGracefulDrain(t *testing.T) {
	s, entered, release := blockingServer(Config{RequestTimeout: 5 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inflight := asyncGet(ts.URL + "/v1/predict?alg=IMe&n=8640&ranks=144")
	<-entered // the request holds a compute slot
	s.Drain()

	// healthz flips to 503 so load balancers stop routing here.
	got := <-asyncGet(ts.URL + "/healthz")
	if got.code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", got.code)
	}
	// New computations are refused with 503 + Retry-After.
	got = <-asyncGet(ts.URL + "/v1/predict?alg=IMe&n=17280&ranks=144")
	if got.code != http.StatusServiceUnavailable {
		t.Fatalf("new request while draining: %d, want 503 (%s)", got.code, got.body)
	}
	if got.hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	var er ErrorResponse
	if err := json.Unmarshal(got.body, &er); err != nil || er.Status != http.StatusServiceUnavailable {
		t.Fatalf("503 body = %q (%v)", got.body, err)
	}

	// The in-flight request completes normally.
	release <- struct{}{}
	r := <-inflight
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: %v %d (%s)", r.err, r.code, r.body)
	}

	// Cached responses still serve (no admission slot needed): repeat the
	// request that just completed and landed in the cache.
	got = <-asyncGet(ts.URL + "/v1/predict?alg=IMe&n=8640&ranks=144")
	if got.code != http.StatusOK {
		t.Fatalf("cache hit while draining: %d, want 200 (%s)", got.code, got.body)
	}
	if hits := s.m.endpoint("predict").hits.Value(); hits != 1 {
		t.Fatalf("cache hits = %g, want 1", hits)
	}
}

// TestPanickedComputeDoesNotWedgeItsKey: a request whose compute panics
// takes down only itself. The identical request after it computes afresh
// instead of waiting out its deadline on the dead leader.
func TestPanickedComputeDoesNotWedgeItsKey(t *testing.T) {
	s := New(Config{RequestTimeout: 2 * time.Second})
	var panicked atomic.Bool
	s.beforeCompute = func() {
		if panicked.CompareAndSwap(false, true) {
			panic("compute bug")
		}
	}
	h := s.Handler()
	serveOnce := func() (rec *httptest.ResponseRecorder, p any) {
		defer func() { p = recover() }()
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/predict?alg=IMe&n=8640&ranks=144", nil))
		return rec, nil
	}
	if _, p := serveOnce(); p == nil {
		t.Fatal("first request did not panic")
	}
	start := time.Now()
	rec, p := serveOnce()
	if p != nil {
		t.Fatalf("repeat after the panic panicked too: %v", p)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat after the panic: %d after %v: %s; want 200", rec.Code, time.Since(start), rec.Body)
	}
}
