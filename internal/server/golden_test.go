package server

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var updateServeGolden = flag.Bool("update", false, "rewrite testdata/serve_golden.txt from the current server")

// goldenRequest is one row of the serving golden: a request as a client
// sends it.
type goldenRequest struct {
	name, method, target, body string
}

// goldenRequests covers all five compute routes: dense recommend in
// several spellings (each objective, capped, block-size variants),
// predict for both solvers, sparse recommend for both matrix kinds,
// sweeps with explicit cells and the paper grid, schedules with
// synthetic and explicit jobs, every 400 of the query parsers and one
// 422. Repeated spellings of one request follow each other, so they are
// served as cache hits under the first spelling's key. No row carries a
// non-finite number.
var goldenRequests = []goldenRequest{
	{"recommend default", "GET", "/v1/recommend?n=8640&ranks=144", ""},
	{"recommend explicit defaults", "GET", "/v1/recommend?n=8640&ranks=144&placement=full-load&objective=min-energy&overlap=true&nb=0&cap_w=0", ""},
	{"recommend matrix=dense", "GET", "/v1/recommend?matrix=dense&n=8640&ranks=144&overlap=1&nb=64", ""},
	{"recommend min-time", "GET", "/v1/recommend?n=17280&ranks=576&placement=half-load-2-sockets&objective=min-time", ""},
	{"recommend max-gflops-per-watt", "GET", "/v1/recommend?n=25920&ranks=1296&placement=half-load-1-socket&objective=max-gflops-per-watt", ""},
	{"recommend capped", "GET", "/v1/recommend?n=8640&ranks=144&cap_w=120", ""},
	{"recommend nb=32", "GET", "/v1/recommend?n=34560&ranks=576&nb=32", ""},
	{"recommend nb=200 no overlap", "GET", "/v1/recommend?n=34560&ranks=576&nb=200&overlap=false&objective=min-time", ""},
	{"predict IMe", "GET", "/v1/predict?alg=IMe&n=8640&ranks=144", ""},
	{"predict ScaLAPACK", "GET", "/v1/predict?alg=scalapack&n=17280&ranks=576&placement=half-load-1-socket", ""},
	{"predict off-grid knobs", "GET", "/v1/predict?alg=ScaLAPACK&n=9997&ranks=144&nb=48&cap_w=110.5&overlap=0", ""},
	{"sparse banded", "GET", "/v1/recommend?matrix=sparse&alg=CG&kind=banded&n=131072&ranks=144&band=256&cond=1e4", ""},
	{"sparse banded respelled", "GET", "/v1/recommend?matrix=sparse&alg=cg&kind=banded&n=131072&ranks=144&band=256&cond=10000&objective=min-energy&placement=full-load&cap_w=0", ""},
	{"sparse random", "GET", "/v1/recommend?matrix=sparse&alg=BiCGSTAB&kind=random&n=16384&ranks=48&density=1e-3&cond=100&objective=min-time", ""},
	{"sparse half load", "GET", "/v1/recommend?matrix=sparse&alg=CG&kind=banded&n=65536&ranks=576&placement=half-load-2-sockets&band=64&cond=100&objective=max-gflops-per-watt", ""},
	{"sweep cells", "POST", "/v1/sweep", `{"cells":[
		{"algorithm":"IMe","n":8640,"ranks":144},
		{"algorithm":"ScaLAPACK","n":8640,"ranks":144,"placement":"full-load"},
		{"algorithm":"IMe","n":17280,"ranks":576,"placement":"half-load-2-sockets"}],
		"overlap":false,"block_size":32,"power_cap_w":130}`},
	{"sweep paper grid", "POST", "/v1/sweep", `{"grid":"paper"}`},
	{"schedule synthetic", "POST", "/v1/schedule", `{"seed":42,"synthetic_jobs":6,"nodes":64,"power_budget_w":15000}`},
	{"schedule explicit", "POST", "/v1/schedule", `{"seed":3,"nodes":16,"policy":"energy-aware","jobs":[
		{"name":"a","n":8640,"ranks":144,"algorithm":"IMe"},
		{"name":"b","submit_s":5,"n":17280,"ranks":576,"placement":"auto","objective":"min-time"}]}`},
	{"400 unknown matrix", "GET", "/v1/recommend?matrix=tridiagonal&alg=CG&kind=banded&n=4096&ranks=48&band=8&cond=100", ""},
	{"400 predict missing alg", "GET", "/v1/predict?n=8640&ranks=144", ""},
	{"400 predict unknown alg", "GET", "/v1/predict?alg=LINPACK&n=8640&ranks=144", ""},
	{"400 sparse missing alg", "GET", "/v1/recommend?matrix=sparse&kind=banded&n=4096&ranks=48&band=8&cond=100", ""},
	{"400 sparse unknown kind", "GET", "/v1/recommend?matrix=sparse&alg=CG&kind=toeplitz&n=4096&ranks=48&band=8&cond=100", ""},
	{"400 dense n=0", "GET", "/v1/recommend?n=0&ranks=144", ""},
	{"400 predict n not an integer", "GET", "/v1/predict?alg=IMe&n=nope&ranks=144", ""},
	{"400 sparse n=0", "GET", "/v1/recommend?matrix=sparse&alg=CG&kind=banded&n=0&ranks=48&band=8&cond=100", ""},
	{"400 dense infeasible ranks", "GET", "/v1/recommend?n=8640&ranks=7", ""},
	{"400 dense unknown placement", "GET", "/v1/recommend?n=8640&ranks=144&placement=quarter-load", ""},
	{"400 sparse more ranks than rows", "GET", "/v1/recommend?matrix=sparse&alg=CG&kind=banded&n=96&ranks=144&band=8&cond=100", ""},
	{"400 sparse cap_w", "GET", "/v1/recommend?matrix=sparse&alg=CG&kind=banded&n=4096&ranks=48&band=8&cond=100&cap_w=110", ""},
	{"400 dense bad objective", "GET", "/v1/recommend?n=8640&ranks=144&objective=min-carbon", ""},
	{"400 sparse bad objective", "GET", "/v1/recommend?matrix=sparse&alg=CG&kind=banded&n=4096&ranks=48&band=8&cond=100&objective=min-carbon", ""},
	{"400 dense negative cap", "GET", "/v1/recommend?n=8640&ranks=144&cap_w=-1", ""},
	{"400 sweep unknown grid", "POST", "/v1/sweep", `{"grid":"galaxy"}`},
	{"400 schedule unknown policy", "POST", "/v1/schedule", `{"synthetic_jobs":4,"policy":"random"}`},
	{"422 more ranks than unknowns", "GET", "/v1/predict?alg=IMe&n=100&ranks=144", ""},
}

// goldenResponse is what the golden records of one response.
type goldenResponse struct {
	code int
	key  string // the cache entry it was served from or stored under (200s)
	body []byte
}

// serveGolden sends every golden request, in order, through one server's
// handler in process.
func serveGolden(t *testing.T, s *Server) []goldenResponse {
	t.Helper()
	h := s.Handler()
	out := make([]goldenResponse, len(goldenRequests))
	for i, gr := range goldenRequests {
		var body io.Reader
		if gr.body != "" {
			body = strings.NewReader(gr.body)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(gr.method, gr.target, body))
		out[i] = goldenResponse{code: rec.Code, body: rec.Body.Bytes()}
		if rec.Code == http.StatusOK {
			// A 200 either hit or stored its body: either way its entry is
			// now the most recently used one.
			out[i].key = s.cache.ll.Front().Value.(*cacheEntry).key
		}
	}
	return out
}

// metricSeries returns the sorted set of series /metrics exposes, names
// and labels only: values, exemplars and the toolchain version dropped.
func metricSeries(t *testing.T, s *Server) []string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	goVersion := regexp.MustCompile(`go_version="[^"]*"`)
	seen := map[string]bool{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series := line
		if i := strings.Index(line, "} "); strings.Contains(line[:max(i, 0)], "{") {
			series = line[:i+1]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			series = line[:i]
		}
		seen[goVersion.ReplaceAllString(series, `go_version="*"`)] = true
	}
	var out []string
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestServeGolden pins the serving layer's observable bytes: status,
// cache key and body of every golden request with the surrogate off and
// on, and through an experiment store — cold, then from a restarted
// server warmed with WarmFromStore — plus the set of /metrics series. A
// change to how requests are parsed, keyed, computed or rendered that is
// meant to be invisible must leave testdata/serve_golden.txt untouched.
// Regenerate with: go test -run TestServeGolden -update ./internal/server
func TestServeGolden(t *testing.T) {
	sur, err := DefaultSurrogate()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	type mode struct {
		name string
		s    *Server
		resp []goldenResponse
	}
	modes := []*mode{
		{name: "exact", s: New(Config{})},
		{name: "surrogate", s: New(Config{Surrogate: sur})},
		{name: "store-cold", s: New(Config{Store: openStore(t, dir)})},
	}
	for _, m := range modes {
		m.resp = serveGolden(t, m.s)
	}
	// A restarted server over the store the cold pass filled.
	warm := &mode{name: "store-warm", s: New(Config{Store: openStore(t, dir)})}
	warmed := warm.s.WarmFromStore()
	warm.resp = serveGolden(t, warm.s)
	modes = append(modes, warm)

	var b strings.Builder
	b.WriteString("# Serving golden: see TestServeGolden. A body already written above is\n")
	b.WriteString("# referred to as \"= <request> (<mode>)\"; one over 4 KiB is written as its\n")
	b.WriteString("# SHA-256 and length.\n")
	firstSeen := map[[sha256.Size]byte]string{}
	for i, gr := range goldenRequests {
		fmt.Fprintf(&b, "\n=== %s\n%s %s\n", gr.name, gr.method, gr.target)
		if gr.body != "" {
			fmt.Fprintf(&b, "%s\n", strings.Join(strings.Fields(gr.body), " "))
		}
		for _, mode := range modes {
			r := mode.resp[i]
			fmt.Fprintf(&b, "--- %s: %d", mode.name, r.code)
			if r.key != "" {
				fmt.Fprintf(&b, " key=%s", r.key)
			}
			b.WriteByte('\n')
			sum := sha256.Sum256(r.body)
			first, seen := firstSeen[sum]
			if !seen {
				firstSeen[sum] = fmt.Sprintf("%s (%s)", gr.name, mode.name)
			}
			switch {
			case seen:
				fmt.Fprintf(&b, "= %s\n", first)
			case len(r.body) > 4096:
				fmt.Fprintf(&b, "sha256 %x (%d bytes)\n", sum, len(r.body))
			default:
				b.Write(r.body)
			}
		}
	}
	fmt.Fprintf(&b, "\n=== WarmFromStore after store-cold: %d bodies\n", warmed)
	for _, m := range []*mode{modes[1], warm} {
		fmt.Fprintf(&b, "\n=== /metrics series (%s)\n", m.name)
		for _, series := range metricSeries(t, m.s) {
			fmt.Fprintf(&b, "%s\n", series)
		}
	}

	const path = "testdata/serve_golden.txt"
	if *updateServeGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
