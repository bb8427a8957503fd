package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/telemetry"
)

// BenchmarkServe is the serving path's cost per request class through
// Handler() in process, with the surrogate on — the classes serve-mix
// mixes, measured one at a time, each with request tracing at its
// default (<class>/traced) and off (<class>/untraced, TraceRing -1):
//
//	go test -run '^$' -bench Serve -benchmem ./internal/server
//
// The miss classes cycle over twice as many distinct keys as the result
// cache holds, so the LRU answers none of them; hit cycles over keys
// served once before the timer starts. ns/op and allocs/op are the
// per-class figures behind server.hit_us, server.surrogate_us,
// server.exact_us and server.sparse_us; traced over untraced is what
// request tracing costs each class.
func BenchmarkServe(b *testing.B) {
	sur, err := DefaultSurrogate()
	if err != nil {
		b.Fatal(err)
	}
	const cacheEntries = 512
	for _, c := range []struct {
		name   string
		keys   int
		warm   bool // serve every key once before timing
		path   func(s *Server) *telemetry.Counter
		target func(i int) string
	}{
		{"hit", 256, true, func(s *Server) *telemetry.Counter { return s.m.endpoint("predict").hits }, func(i int) string {
			return fmt.Sprintf("/v1/predict?alg=ScaLAPACK&n=%d&ranks=144", 9000+i)
		}},
		{"surrogate", 2 * cacheEntries, false, func(s *Server) *telemetry.Counter { return s.m.endpoint("recommend").surrogate }, func(i int) string {
			return fmt.Sprintf("/v1/recommend?n=%d&ranks=144&objective=min-time", 8000+i)
		}},
		{"exact", 2 * cacheEntries, false, func(s *Server) *telemetry.Counter { return s.m.endpoint("recommend").compute }, func(i int) string {
			return fmt.Sprintf("/v1/recommend?n=%d&ranks=144&objective=max-gflops-per-watt&cap_w=%.3f", 26000+i, 120+0.01*float64(i))
		}},
		{"sparse", 2 * cacheEntries, false, func(s *Server) *telemetry.Counter { return s.m.endpoint("recommend").compute }, func(i int) string {
			return fmt.Sprintf("/v1/recommend?matrix=sparse&alg=CG&kind=banded&n=%d&ranks=144&band=64&cond=100", 70000+i)
		}},
	} {
		for _, tracing := range []struct {
			name string
			ring int
		}{{"traced", 0}, {"untraced", -1}} {
			b.Run(c.name+"/"+tracing.name, func(b *testing.B) {
				s := New(Config{Surrogate: sur, CacheEntries: cacheEntries, TraceRing: tracing.ring})
				h := s.Handler()
				reqs := make([]*http.Request, c.keys)
				for i := range reqs {
					reqs[i] = httptest.NewRequest(http.MethodGet, c.target(i), nil)
				}
				w := &allocWriter{header: make(http.Header, 2)}
				serveOne := func(r *http.Request) {
					w.body, w.status = w.body[:0], 0
					h.ServeHTTP(w, r)
					if w.status != http.StatusOK {
						b.Fatalf("%s: status %d: %s", r.URL, w.status, w.body)
					}
				}
				if c.warm {
					for _, r := range reqs {
						serveOne(r)
					}
				}
				path := c.path(s)
				before := path.Value()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					serveOne(reqs[i%len(reqs)])
				}
				b.StopTimer()
				if took := path.Value() - before; took != float64(b.N) {
					b.Fatalf("%g of %d requests took the %s path", took, b.N, c.name)
				}
			})
		}
	}
}
