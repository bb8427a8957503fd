// advisorload is a closed-loop load generator for advisord: a fixed
// number of workers each keep exactly one request in flight (fire,
// await, fire again), so measured latency is service latency, not
// coordinated-omission artifacts from an open-loop arrival clock.
//
// The request mix walks the paper's §5.1 grid — matrix orders × rank
// counts × placements — with an optional off-grid fraction that jitters
// the matrix order away from the grid (exercising the surrogate between
// its knots), and -distinct perturbs every request to a unique never-
// cached shape, pinning the cache-miss path. Every request carries a
// client-chosen traceparent, so the slowest observations print with the
// trace ID to fetch from /debug/trace/{id}. Results (throughput, latency
// percentiles, status counts, the server's build identity and its SLO
// verdicts) are printed and optionally written as JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

type result struct {
	latency time.Duration
	status  int
	err     bool
	traceID string
}

// versionInfo mirrors the server's GET /version body.
type versionInfo struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Surrogate string `json:"surrogate"`
}

// sloObjective is the slice of the /debug/slo body the verdict line needs.
type sloObjective struct {
	Name     string `json:"name"`
	Requests uint64 `json:"requests"`
	Verdict  string `json:"verdict"`
}

type slowTrace struct {
	TraceID   string  `json:"trace_id"`
	LatencyMs float64 `json:"latency_ms"`
}

type summary struct {
	URL         string             `json:"url"`
	Endpoint    string             `json:"endpoint"`
	Concurrency int                `json:"concurrency"`
	DurationS   float64            `json:"duration_s"`
	Distinct    bool               `json:"distinct"`
	OffGridPct  int                `json:"offgrid_pct"`
	Requests    int                `json:"requests"`
	Errors      int                `json:"errors"`
	Status      map[string]int     `json:"status"`
	Throughput  float64            `json:"throughput_rps"`
	LatencyMs   map[string]float64 `json:"latency_ms"`
	Server      *versionInfo       `json:"server,omitempty"`
	SLOVerdicts map[string]string  `json:"slo_verdicts,omitempty"`
	Slowest     []slowTrace        `json:"slowest_traces,omitempty"`
}

func main() {
	var (
		base     = flag.String("url", "http://localhost:8080", "advisord base URL")
		conc     = flag.Int("c", 8, "closed-loop workers (in-flight requests)")
		duration = flag.Duration("duration", 10*time.Second, "measurement window")
		endpoint = flag.String("endpoint", "mix", "request mix: recommend, predict or mix")
		offGrid  = flag.Int("offgrid", 30, "percent of requests jittered off the paper grid")
		distinct = flag.Bool("distinct", false, "make every request unique (pins the cache-miss path)")
		seed     = flag.Int64("seed", 1, "request-mix RNG seed")
		jsonOut  = flag.String("json", "", "write the summary as JSON to this file")
	)
	flag.Parse()
	if *conc <= 0 {
		log.Fatal("advisorload: -c must be positive")
	}
	switch *endpoint {
	case "recommend", "predict", "mix":
	default:
		log.Fatalf("advisorload: -endpoint %q (want recommend, predict or mix)", *endpoint)
	}
	if *offGrid < 0 || *offGrid > 100 {
		log.Fatal("advisorload: -offgrid must be 0..100")
	}

	client := &http.Client{Timeout: 30 * time.Second}

	// Identify the server under test before loading it.
	server := fetchVersion(client, *base)
	if server != nil {
		fmt.Printf("server: advisord %s (%s, surrogate %s)\n", server.Version, server.GoVersion, server.Surrogate)
	}

	var uniq atomic.Int64 // distinct-mode perturbation, shared across workers
	var wg sync.WaitGroup
	results := make([][]result, *conc)
	deadline := time.Now().Add(*duration)
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			for time.Now().Before(deadline) {
				url := *base + nextPath(rng, *endpoint, *offGrid, *distinct, &uniq)
				// Name the trace client-side (W3C traceparent) so a slow
				// observation maps straight to a fetchable server trace.
				traceID := fmt.Sprintf("%016x%016x", rng.Uint64()|1, rng.Uint64())
				req, err := http.NewRequest(http.MethodGet, url, nil)
				if err != nil {
					results[w] = append(results[w], result{err: true})
					continue
				}
				req.Header.Set("traceparent", "00-"+traceID+"-0000000000000001-01")
				start := time.Now()
				resp, err := client.Do(req)
				lat := time.Since(start)
				r := result{latency: lat, traceID: traceID}
				if err != nil {
					r.err = true
				} else {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					r.status = resp.StatusCode
				}
				results[w] = append(results[w], r)
			}
		}(w)
	}
	wg.Wait()

	var all []result
	for _, rs := range results {
		all = append(all, rs...)
	}
	if len(all) == 0 {
		log.Fatal("advisorload: no requests completed")
	}
	s := summarize(all, *base, *endpoint, *conc, *duration, *distinct, *offGrid)
	s.Server = server
	fmt.Printf("advisorload: %d requests in %.1fs (%.0f req/s), %d errors\n",
		s.Requests, s.DurationS, s.Throughput, s.Errors)
	fmt.Printf("latency ms: p50 %.3f  p95 %.3f  p99 %.3f  max %.3f\n",
		s.LatencyMs["p50"], s.LatencyMs["p95"], s.LatencyMs["p99"], s.LatencyMs["max"])
	var codes []string
	for code := range s.Status {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		fmt.Printf("status %s: %d\n", code, s.Status[code])
	}
	for _, st := range s.Slowest {
		fmt.Printf("slow request: %.3fms  trace %s  (GET %s/debug/trace/%s)\n",
			st.LatencyMs, st.TraceID, *base, st.TraceID)
	}

	// The server's own verdict on the run: observed SLO compliance.
	if verdicts := fetchSLOVerdicts(client, *base); len(verdicts) > 0 {
		s.SLOVerdicts = map[string]string{}
		var names []string
		for _, o := range verdicts {
			s.SLOVerdicts[o.Name] = o.Verdict
			names = append(names, o.Name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("slo %s: %s\n", name, s.SLOVerdicts[name])
		}
	}

	if *jsonOut != "" {
		b, err := json.MarshalIndent(s, "", " ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if s.Errors > 0 || s.Status[fmt.Sprint(http.StatusOK)] != s.Requests {
		os.Exit(1)
	}
}

// fetchVersion asks the server who it is; nil when /version is absent
// (an older advisord), which is informational, not fatal.
func fetchVersion(client *http.Client, base string) *versionInfo {
	resp, err := client.Get(base + "/version")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	var vi versionInfo
	if err := json.NewDecoder(resp.Body).Decode(&vi); err != nil {
		return nil
	}
	return &vi
}

// fetchSLOVerdicts reads /debug/slo after the run.
func fetchSLOVerdicts(client *http.Client, base string) []sloObjective {
	resp, err := client.Get(base + "/debug/slo")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	var rep struct {
		Objectives []sloObjective `json:"objectives"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil
	}
	var out []sloObjective
	for _, o := range rep.Objectives {
		if o.Requests > 0 {
			out = append(out, o)
		}
	}
	return out
}

// nextPath draws one request from the mix: a paper grid cell, its matrix
// order jittered off-grid for offGrid percent of draws (±20%, clamped to
// stay a plausible job), and perturbed to a globally unique order under
// -distinct so no two requests share a cache key.
func nextPath(rng *rand.Rand, endpoint string, offGrid int, distinct bool, uniq *atomic.Int64) string {
	dims := cluster.PaperMatrixDims()
	rankCounts := cluster.PaperRankCounts()
	placements := cluster.Placements()
	n := dims[rng.Intn(len(dims))]
	ranks := rankCounts[rng.Intn(len(rankCounts))]
	pl := placements[rng.Intn(len(placements))]
	if rng.Intn(100) < offGrid {
		n = n + rng.Intn(n/5+1) - n/10 // ±10% around the grid order
	}
	if distinct {
		// Walk orders upward from the grid so every request is a fresh
		// cache key but stays inside the modelled range.
		n += int(uniq.Add(1)) % 1000
	}
	if n < 4*ranks {
		n = 4 * ranks
	}
	ep := endpoint
	if ep == "mix" {
		if rng.Intn(2) == 0 {
			ep = "recommend"
		} else {
			ep = "predict"
		}
	}
	var b strings.Builder
	if ep == "recommend" {
		objectives := []string{"min-energy", "min-time", "max-gflops-per-watt"}
		fmt.Fprintf(&b, "/v1/recommend?n=%d&ranks=%d&placement=%s&objective=%s",
			n, ranks, pl, objectives[rng.Intn(len(objectives))])
	} else {
		alg := "IMe"
		if rng.Intn(2) == 0 {
			alg = "ScaLAPACK"
		}
		fmt.Fprintf(&b, "/v1/predict?alg=%s&n=%d&ranks=%d&placement=%s", alg, n, ranks, pl)
	}
	return b.String()
}

// slowestCount bounds the printed worst observations.
const slowestCount = 3

func summarize(all []result, url, endpoint string, conc int, d time.Duration, distinct bool, offGrid int) summary {
	lats := make([]float64, 0, len(all))
	s := summary{
		URL:         url,
		Endpoint:    endpoint,
		Concurrency: conc,
		DurationS:   d.Seconds(),
		Distinct:    distinct,
		OffGridPct:  offGrid,
		Requests:    len(all),
		Status:      map[string]int{},
	}
	for _, r := range all {
		if r.err {
			s.Errors++
			continue
		}
		s.Status[fmt.Sprint(r.status)]++
		lats = append(lats, float64(r.latency)/float64(time.Millisecond))
	}
	sort.Float64s(lats)
	pct := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	s.LatencyMs = map[string]float64{
		"p50": pct(0.50), "p95": pct(0.95), "p99": pct(0.99), "max": pct(1),
	}
	s.Throughput = float64(s.Requests) / d.Seconds()

	// The worst observations, with the trace IDs to go fetch.
	byLatency := append([]result(nil), all...)
	sort.Slice(byLatency, func(i, j int) bool { return byLatency[i].latency > byLatency[j].latency })
	for _, r := range byLatency {
		if len(s.Slowest) == slowestCount {
			break
		}
		if r.err || r.traceID == "" {
			continue
		}
		s.Slowest = append(s.Slowest, slowTrace{
			TraceID:   r.traceID,
			LatencyMs: float64(r.latency) / float64(time.Millisecond),
		})
	}
	return s
}
