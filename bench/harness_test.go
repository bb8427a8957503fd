package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// These tests cover the harness only — statistics, spans, the request
// generator, fingerprints and the manifest — and run no workload, so
// they add well under a second to `go test ./...`.

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100, ascending
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of unsorted input = %g, want 2", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := samplesBeyond(100, 0.9); got != 10 {
		t.Errorf("samplesBeyond(100, 0.9) = %d, want 10", got)
	}
	if got := samplesBeyond(83, 0.9); got != 8 {
		t.Errorf("samplesBeyond(83, 0.9) = %d, want 8", got)
	}
}

// The expected values are Python's statistics.quantiles(v, n=4) and
// statistics.median(v), which the acceptance protocol uses.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{10.0, 10.2, 9.9, 10.1, 10.4, 9.7, 10.0, 10.3, 9.8, 10.05}, 0.03491271820448874},
		{[]float64{3, 1, 2}, 1.0},
	} {
		if got := quartileSpread(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeNestedAndAdjacentChildren(t *testing.T) {
	spans := []span{
		{name: "op", op: 0, parent: -1, start: ms(0), end: ms(100)},
		{name: "a", op: 0, parent: 0, start: ms(10), end: ms(40)},  // adjacent to b
		{name: "b", op: 0, parent: 0, start: ms(40), end: ms(70)},  // adjacent to a
		{name: "a1", op: 0, parent: 1, start: ms(15), end: ms(25)}, // nested in a
		{name: "c", op: 0, parent: 0, start: ms(60), end: ms(120)}, // overlaps b, overruns op
	}
	want := []time.Duration{ms(10), ms(20), ms(30), ms(10), ms(60)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// A grandchild takes nothing from the root: only a, b and c do.
	if got := selfByName(spans)["op"]; got != 10 {
		t.Errorf("root self time = %g ms, want 10", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, -1)
	tr.finish(id) // must not panic
	if id != -1 {
		t.Errorf("nil tracer handed out span %d", id)
	}
	live := newTracer()
	root := live.begin("op", 7, -1)
	child := live.begin("layer", 7, root)
	live.finish(child)
	live.finish(root)
	if len(live.spans) != 2 || live.spans[1].parent != root || live.spans[1].op != 7 {
		t.Errorf("recorded %+v", live.spans)
	}
	if live.spans[0].dur() < live.spans[1].dur() {
		t.Errorf("child outlasts its parent: %+v", live.spans)
	}
}

func drawTargets(seed int64, n int) ([]string, [numClasses]int) {
	g := newGenerator(seed)
	targets := make([]string, n)
	var counts [numClasses]int
	for i := range targets {
		r := g.next()
		targets[i] = r.target
		counts[r.class]++
	}
	return targets, counts
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	const n = 20000
	a, counts := drawTargets(42, n)
	b, _ := drawTargets(42, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different request lists")
	}
	c, _ := drawTargets(43, n)
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds drew the same request list")
	}
	for cl, share := range classShare {
		got := 100 * float64(counts[cl]) / n
		if math.Abs(got-float64(share)) > 1 {
			t.Errorf("class %s is %.2f%% of the mix, want %d%% ± 1", classSpan[cl], got, share)
		}
	}
}

func TestGeneratorRepeatsOnlyHotKeys(t *testing.T) {
	g := newGenerator(7)
	hot := make(map[string]bool)
	for _, r := range g.hot {
		hot[r.target] = true
	}
	if len(hot) != hotKeys {
		t.Fatalf("%d distinct hot keys, want %d", len(hot), hotKeys)
	}
	seen := make(map[string]bool)
	for i := 0; i < 20000; i++ {
		r := g.next()
		switch {
		case r.class == classHit && !hot[r.target]:
			t.Fatalf("hit-class request %s is not a hot key", r.target)
		case r.class != classHit && (seen[r.target] || hot[r.target]):
			t.Fatalf("%s-class request %s repeats an earlier one", classSpan[r.class], r.target)
		}
		seen[r.target] = true
	}
}

func TestFingerprintComparison(t *testing.T) {
	ref := newFingerprint()
	ref.setFloat("duration_s", 0.014918841200008066)
	ref.setInt("msgs", 5769)
	ref.Exact["digest"] = "abc"
	ref.Joules["total_j"] = 100

	same := newFingerprint()
	same.setFloat("duration_s", 0.014918841200008066)
	same.setInt("msgs", 5769)
	same.Exact["digest"] = "abc"
	same.Joules["total_j"] = 100.9 // within the 1% joule tolerance
	if d := ref.diff(same); len(d) != 0 {
		t.Errorf("matching fingerprints differ: %v", d)
	}

	// The fingerprint survives the JSON round trip bit for bit.
	var back fingerprint
	if err := json.Unmarshal([]byte(ref.String()), &back); err != nil || len(ref.diff(back)) != 0 {
		t.Errorf("round trip: err=%v diff=%v", err, ref.diff(back))
	}

	for name, mutate := range map[string]func(f fingerprint){
		"last bit of a duration": func(f fingerprint) {
			f.setFloat("duration_s", math.Nextafter(0.014918841200008066, 1))
		},
		"message count":      func(f fingerprint) { f.setInt("msgs", 5770) },
		"digest":             func(f fingerprint) { f.Exact["digest"] = "abd" },
		"joules beyond 1%":   func(f fingerprint) { f.Joules["total_j"] = 101.1 },
		"missing exact key":  func(f fingerprint) { delete(f.Exact, "msgs") },
		"extra joule key":    func(f fingerprint) { f.Joules["other_j"] = 1 },
		"missing joule key":  func(f fingerprint) { delete(f.Joules, "total_j") },
		"unexpected exact k": func(f fingerprint) { f.Exact["new"] = "1" },
	} {
		got := newFingerprint()
		for k, v := range same.Exact {
			got.Exact[k] = v
		}
		for k, v := range same.Joules {
			got.Joules[k] = v
		}
		mutate(got)
		if d := ref.diff(got); len(d) != 1 {
			t.Errorf("%s: diff = %v, want exactly one entry", name, d)
		}
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestManifestMatchesTheSuite(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(m.Command, want) {
		t.Errorf("command = %v, want %v", m.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(m.Paths, want) {
		t.Errorf("paths = %v, want %v", m.Paths, want)
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the suite has %d", len(m.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if got := m.Workloads[i]; got.Name != wl.name || got.Why != wl.why {
			t.Errorf("workload %d = %+v, want {%s %s}", i, got, wl.name, wl.why)
		}
		if len(wl.why) > 200 {
			t.Errorf("%s: why is %d characters, the manifest allows 200", wl.name, len(wl.why))
		}
	}

	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, the suite has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound):
				t.Errorf("%s: bound %v, want %v", d.name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)

	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		if _, ok := refs[wl.name]; !ok {
			t.Errorf("%s has no reference fingerprint for %s", referenceFile, wl.name)
		}
	}
	if len(refs) != len(workloads) {
		t.Errorf("%s holds %d fingerprints for %d workloads", referenceFile, len(refs), len(workloads))
	}
}
