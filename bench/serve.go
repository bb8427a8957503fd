package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// class is the serving path a generated request is built to take.
type class int

const (
	classSurrogate class = iota // distinct in-envelope key → surrogate, ~25 µs
	classHit                    // repeat of a hot key → result cache, ~13 µs
	classExact                  // distinct capped key → coalesce, admission, two perfmodel.Run, ~1.3 ms
	classSparse                 // matrix=sparse → exact sparse model (no surrogate by design)
	numClasses
)

// classSpan names the span around a request of each class; with "_us"
// appended it is the class's per-layer metric.
var classSpan = [numClasses]string{"server.surrogate", "server.hit", "server.exact", "server.sparse"}

// classShare is the mix, in requests per block of 100. The shares
// put op_p50_ms inside the surrogate class and op_p90_ms inside the exact
// class, never on a class boundary. Every block holds exactly these
// counts in a seeded order, so the shares do not drift with the seed or
// with how many requests a run gets through.
var classShare = [numClasses]int{classSurrogate: 50, classHit: 20, classExact: 25, classSparse: 5}

const (
	hotKeys = 200
	// serveChunk is how many requests are timed between two
	// verifications; the fingerprint digests the first chunk's bodies.
	serveChunk = 1000
)

var serveMix = &workload{
	name: "serve-mix",
	why: "closed loop of 2 clients through the advisor handler: 50% surrogate, 20% cache hits, 25% exact capped " +
		"recommends, 5% sparse; the median sits in the surrogate path and the p90 in the exact path",
	warmup:  5000,
	chunk:   serveChunk,
	clients: 2,
	miniOps: 10000,
	setup:   setupServe,
}

// request is one generated call and, after run, its answer.
type request struct {
	class  class
	target string // path and query
	n      int
	ranks  int
	hot    int // index of the hot key, -1 for a distinct request
	req    *http.Request
	resp   response
}

// response is the smallest http.ResponseWriter the handler can write to.
type response struct {
	header http.Header
	status int
	body   []byte
}

func (r *response) Header() http.Header  { return r.header }
func (r *response) WriteHeader(code int) { r.status = code }
func (r *response) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}

// generator draws the request stream of one seed. Request i depends only
// on the seed and i: the harness asks for consecutive ranges.
type generator struct {
	rng   *rand.Rand
	seen  map[string]bool // every distinct target handed out so far
	hot   []request
	block []class // the classes of the current block, drawn from its end
}

func newGenerator(seed int64) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed)), seen: make(map[string]bool)}
	for len(g.hot) < hotKeys {
		r := g.distinct(classSurrogate)
		r.class, r.hot = classHit, len(g.hot)
		g.hot = append(g.hot, r)
	}
	return g
}

// next draws the next request of the stream.
func (g *generator) next() request {
	if len(g.block) == 0 {
		for c, share := range classShare {
			for k := 0; k < share; k++ {
				g.block = append(g.block, class(c))
			}
		}
		g.rng.Shuffle(len(g.block), func(a, b int) { g.block[a], g.block[b] = g.block[b], g.block[a] })
	}
	c := g.block[len(g.block)-1]
	g.block = g.block[:len(g.block)-1]
	if c == classHit {
		return g.hot[g.rng.Intn(len(g.hot))]
	}
	return g.distinct(c)
}

// distinct draws a request of class c whose target no earlier request
// has: a cell of the §5.1 grid with its order jittered ±10% off the grid.
func (g *generator) distinct(c class) request {
	dims, rankCounts, placements := cluster.PaperMatrixDims(), cluster.PaperRankCounts(), cluster.Placements()
	for {
		n := dims[g.rng.Intn(len(dims))]
		n += g.rng.Intn(n/5+1) - n/10
		r := request{class: c, n: n, ranks: rankCounts[g.rng.Intn(len(rankCounts))], hot: -1}
		pl := placements[g.rng.Intn(len(placements))]
		objective := []string{"min-energy", "min-time", "max-gflops-per-watt"}[g.rng.Intn(3)]
		switch {
		case c == classSparse:
			r.n = 1<<16 + g.rng.Intn(1<<20-1<<16)
			r.ranks = 144
			r.target = fmt.Sprintf("/v1/recommend?matrix=sparse&alg=%s&kind=banded&n=%d&ranks=%d&band=64&cond=100&objective=%s",
				[]string{"CG", "BiCGSTAB"}[g.rng.Intn(2)], r.n, r.ranks, objective)
		case c == classExact:
			// A power cap is outside the surrogate's trained envelope.
			r.target = fmt.Sprintf("/v1/recommend?n=%d&ranks=%d&placement=%s&objective=%s&cap_w=%.3f",
				r.n, r.ranks, pl, objective, 100+40*g.rng.Float64())
		case g.rng.Intn(2) == 0:
			r.target = fmt.Sprintf("/v1/recommend?n=%d&ranks=%d&placement=%s&objective=%s", r.n, r.ranks, pl, objective)
		default:
			r.target = fmt.Sprintf("/v1/predict?alg=%s&n=%d&ranks=%d&placement=%s",
				[]string{"IMe", "ScaLAPACK"}[g.rng.Intn(2)], r.n, r.ranks, pl)
		}
		if !g.seen[r.target] {
			g.seen[r.target] = true
			return r
		}
	}
}

// serveInst sends each request through server.New(...).Handler() in
// process. No sockets: they add kernel-scheduler noise and measure
// net/http, which no change here will touch (server.http_rtt_us says what
// a socket adds).
type serveInst struct {
	srv     *server.Server
	handler http.Handler
	gen     *generator
	base    int       // index of cur[0]
	cur     []request // the chunk being run
	hotBody [][]byte  // first answer per hot key
	counts  [numClasses]int
	digest  hash.Hash // over the first serveChunk bodies, in op order
	sum     string
}

func setupServe(seed int64, _ string) (instance, error) {
	sur, err := server.DefaultSurrogate()
	if err != nil {
		return nil, fmt.Errorf("load the surrogate table: %w", err)
	}
	srv := server.New(server.Config{Surrogate: sur})
	return &serveInst{
		srv:     srv,
		handler: srv.Handler(),
		gen:     newGenerator(seed),
		hotBody: make([][]byte, hotKeys),
		digest:  sha256.New(),
	}, nil
}

func (in *serveInst) prepare(lo, hi int) error {
	in.base, in.cur = lo, make([]request, hi-lo)
	for k := range in.cur {
		r := in.gen.next()
		r.req = httptest.NewRequest(http.MethodGet, r.target, nil)
		r.resp = response{header: make(http.Header, 2), status: http.StatusOK}
		in.cur[k] = r
	}
	return nil
}

func (in *serveInst) run(i int, tr *tracer, root int) error {
	r := &in.cur[i-in.base]
	sp := tr.begin(classSpan[r.class], i, root)
	in.handler.ServeHTTP(&r.resp, r.req)
	tr.finish(sp)
	return nil
}

// answer is what check reads back from any of the three body shapes.
type answer struct {
	N     int `json:"n"`
	Ranks int `json:"ranks"`
}

func (in *serveInst) check(i int) error {
	r := &in.cur[i-in.base]
	in.counts[r.class]++
	if i < serveChunk {
		in.digest.Write(r.resp.body)
		if i == serveChunk-1 {
			in.sum = hex.EncodeToString(in.digest.Sum(nil))
		}
	}
	if r.resp.status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", r.target, r.resp.status, bytes.TrimSpace(r.resp.body))
	}
	var a answer
	if err := json.Unmarshal(r.resp.body, &a); err != nil {
		return fmt.Errorf("%s: body does not parse: %w", r.target, err)
	}
	if a.N != r.n || a.Ranks != r.ranks {
		return fmt.Errorf("%s: answered for n=%d ranks=%d", r.target, a.N, a.Ranks)
	}
	if r.hot >= 0 {
		if first := in.hotBody[r.hot]; first == nil {
			in.hotBody[r.hot] = r.resp.body
		} else if !bytes.Equal(first, r.resp.body) {
			return fmt.Errorf("%s: repeat answer differs from the first", r.target)
		}
	}
	return nil
}

func (in *serveInst) fingerprint() fingerprint {
	fp := newFingerprint()
	fp.Exact["bodies.sha256"] = in.sum
	return fp
}

// counter reads one of the server's counters, summed over endpoints.
func (in *serveInst) counter(name string, labels ...string) float64 {
	var total float64
	for _, ep := range []string{"recommend", "predict"} {
		total += in.srv.Registry().Counter(name, "", append([]string{"endpoint", ep}, labels...)...).Value()
	}
	return total
}

func (in *serveInst) shed() float64 {
	var total float64
	for _, reason := range []string{"queue-full", "deadline", "draining"} {
		total += in.counter("server_shed_total", "reason", reason)
	}
	return total
}

// close checks that the requests took the paths they were built for. The
// bodies do not name their engine, so this reads the server's own
// counters: every exact and sparse request is distinct, so each is one
// refused surrogate attempt (exact only) and one model evaluation;
// nothing is shed; and the cache can only have answered repeats.
func (in *serveInst) close() error {
	exact, sparse := float64(in.counts[classExact]), float64(in.counts[classSparse])
	if got := in.counter("server_surrogate_fallback_total"); got != exact {
		return fmt.Errorf("the surrogate refused %v requests, want the %v exact-class ones", got, exact)
	}
	if got := in.counter("server_compute_total"); got != exact+sparse {
		return fmt.Errorf("%v model evaluations, want %v (exact + sparse classes)", got, exact+sparse)
	}
	if got := in.counter("server_surrogate_total"); got < float64(in.counts[classSurrogate]) {
		return fmt.Errorf("the surrogate answered %v requests, fewer than the %d surrogate-class ones", got, in.counts[classSurrogate])
	}
	if got := in.counter("server_cache_hits_total"); got > float64(in.counts[classHit]) {
		return fmt.Errorf("%v cache hits, more than the %d repeats sent", got, in.counts[classHit])
	}
	if got := in.shed(); got != 0 {
		return fmt.Errorf("%v requests shed", got)
	}
	return nil
}

// layers reports handler wall by generator-known class, the ratios the
// server's own registry counted, and the probes that need a server.
func (in *serveInst) layers(tr *tracer, out map[string]float64) error {
	fmt.Printf("%s: handler wall by class, us (p25 p50 p75 p90):", serveMix.name)
	for _, name := range classSpan {
		us := sortedCopy(tr.durationsMS(name))
		for k := range us {
			us[k] *= 1e3
		}
		out[name+"_us"] = median(us)
		fmt.Printf(" %s %.4g %.4g %.4g %.4g;", name,
			percentile(us, 0.25), percentile(us, 0.5), percentile(us, 0.75), percentile(us, 0.9))
	}
	fmt.Println()
	var sent float64
	for _, n := range in.counts {
		sent += float64(n)
	}
	out["server.cache_hit_ratio"] = in.counter("server_cache_hits_total") / sent
	out["server.surrogate_ratio"] = in.counter("server_surrogate_total") / sent
	out["server.shed_total"] = in.shed()

	// Parsing alone, on the recommend targets of a fresh chunk.
	g := newGenerator(1)
	var queries []url.Values
	for len(queries) < 2000 {
		if r := g.next(); r.class == classSurrogate || r.class == classExact {
			u, err := url.Parse(r.target)
			if err != nil {
				return err
			}
			if u.Path == "/v1/recommend" {
				queries = append(queries, u.Query())
			}
		}
	}
	start := time.Now()
	for _, q := range queries {
		if _, err := server.ParseRecommendRequest(q); err != nil {
			return err
		}
	}
	out["server.parse_us"] = time.Since(start).Seconds() * 1e6 / float64(len(queries))

	ratio, err := tracingCost()
	if err != nil {
		return err
	}
	out["server.tracing_cost_ratio"] = ratio
	rtt, err := httpRTT(in.gen.hot[0].target)
	if err != nil {
		return err
	}
	out["server.http_rtt_us"] = rtt
	return nil
}

// tracingCost is the median surrogate-class handler wall with the default
// trace ring over that with request tracing off (TraceRing -1), 5 000
// requests each, interleaved in chunks so both see the same machine.
func tracingCost() (float64, error) {
	sur, err := server.DefaultSurrogate()
	if err != nil {
		return 0, err
	}
	var handlers [2]http.Handler
	for k, ring := range []int{0, -1} {
		handlers[k] = server.New(server.Config{Surrogate: sur, TraceRing: ring, Registry: telemetry.NewRegistry()}).Handler()
	}
	g := newGenerator(2)
	var wall [2][]float64
	for chunk := 0; chunk < 10; chunk++ {
		for k, h := range handlers {
			for j := 0; j < 500; j++ {
				r := g.distinct(classSurrogate)
				req := httptest.NewRequest(http.MethodGet, r.target, nil)
				resp := response{header: make(http.Header, 2), status: http.StatusOK}
				t0 := time.Now()
				h.ServeHTTP(&resp, req)
				wall[k] = append(wall[k], time.Since(t0).Seconds()*1e6)
				if resp.status != http.StatusOK {
					return 0, fmt.Errorf("%s: status %d", r.target, resp.status)
				}
			}
		}
	}
	return median(wall[0]) / median(wall[1]), nil
}

// httpRTT is the median round trip of one cache-hit request over a
// loopback httptest.Server in front of a fresh server: what the socket
// adds to server.hit_us.
func httpRTT(path string) (float64, error) {
	sur, err := server.DefaultSurrogate()
	if err != nil {
		return 0, err
	}
	ts := httptest.NewServer(server.New(server.Config{Surrogate: sur}).Handler())
	defer ts.Close()
	client := ts.Client()
	target := ts.URL + path
	var rtt []float64
	for j := 0; j < 300; j++ {
		t0 := time.Now()
		resp, err := client.Get(target)
		if err != nil {
			return 0, err
		}
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("%s: status %d", target, resp.StatusCode)
		}
		if j >= 20 { // the first requests open the connection and fill the cache
			rtt = append(rtt, time.Since(t0).Seconds()*1e6)
		}
	}
	sort.Float64s(rtt)
	return percentile(rtt, 0.5), nil
}
