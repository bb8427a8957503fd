package server

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

func digestN(i int, durUS float64) RequestDigest {
	return RequestDigest{
		ID:         fmt.Sprintf("%032x", i),
		Endpoint:   "predict",
		Status:     200,
		Source:     "compute",
		DurationUS: durUS,
	}
}

func TestRingRecencyEviction(t *testing.T) {
	r := newRequestRing(4)
	for i := 1; i <= 10; i++ {
		r.Add(digestN(i, 1), telemetry.NewTrace(fmt.Sprintf("%032x", i)), 0)
	}
	snap := r.Snapshot()
	if len(snap.Recent) != 4 {
		t.Fatalf("recent = %d, want 4", len(snap.Recent))
	}
	// Newest first.
	if snap.Recent[0].ID != fmt.Sprintf("%032x", 10) || snap.Recent[3].ID != fmt.Sprintf("%032x", 7) {
		t.Fatalf("recent order: %+v", snap.Recent)
	}
	// All 10 had equal durations; the slowest view keeps up to its own
	// bound, so every trace is still fetchable via some view.
	for i := 1; i <= 10; i++ {
		if _, ok := r.Trace(fmt.Sprintf("%032x", i)); !ok {
			t.Fatalf("trace %d lost while still in the slowest view", i)
		}
	}
}

func TestRingSlowRequestOutlivesRecency(t *testing.T) {
	r := newRequestRing(2)
	slowID := fmt.Sprintf("%032x", 999)
	r.Add(RequestDigest{ID: slowID, Endpoint: "sweep", Status: 200, DurationUS: 1e6},
		telemetry.NewTrace(slowID), 0)
	// Flood with fast requests far past the recency bound.
	for i := 1; i <= 50; i++ {
		r.Add(digestN(i, float64(i)), telemetry.NewTrace(fmt.Sprintf("%032x", i)), 0)
	}
	snap := r.Snapshot()
	for _, d := range snap.Recent {
		if d.ID == slowID {
			t.Fatal("slow request still in recent after 50 arrivals")
		}
	}
	if snap.Slowest[0].ID != slowID {
		t.Fatalf("slowest[0] = %+v, want the 1s request", snap.Slowest[0])
	}
	if _, ok := r.Trace(slowID); !ok {
		t.Fatal("slow request's trace not fetchable")
	}
}

func TestRingErroredView(t *testing.T) {
	r := newRequestRing(2)
	errID := fmt.Sprintf("%032x", 7777)
	r.Add(RequestDigest{ID: errID, Endpoint: "predict", Status: 504, Error: "deadline", DurationUS: 3},
		telemetry.NewTrace(errID), 0)
	for i := 1; i <= 50; i++ {
		r.Add(digestN(i, 100), telemetry.NewTrace(fmt.Sprintf("%032x", i)), 0)
	}
	snap := r.Snapshot()
	if len(snap.Errored) != 1 || snap.Errored[0].ID != errID {
		t.Fatalf("errored = %+v", snap.Errored)
	}
	if _, ok := r.Trace(errID); !ok {
		t.Fatal("errored request's trace not fetchable")
	}
}

func TestRingFullyEvictedTraceGone(t *testing.T) {
	r := newRequestRing(1)
	// Saturate the slowest view so later equal-duration entries are only
	// held by recency.
	for i := 1; i <= ringSlowest; i++ {
		r.Add(digestN(i, 1000), telemetry.NewTrace(fmt.Sprintf("%032x", i)), 0)
	}
	victim := fmt.Sprintf("%032x", 100)
	r.Add(RequestDigest{ID: victim, Endpoint: "predict", Status: 200, DurationUS: 1}, telemetry.NewTrace(victim), 0)
	r.Add(digestN(101, 1), telemetry.NewTrace(fmt.Sprintf("%032x", 101)), 0)
	if _, ok := r.Trace(victim); ok {
		t.Fatal("victim trace still fetchable after eviction from every view")
	}
	if _, ok := r.Trace(fmt.Sprintf("%032x", 1)); !ok {
		t.Fatal("slowest-held trace evicted")
	}
}

// TestRingStagesDerivedOnRead: a digest's stages are the wall-clock spans
// directly under the root, in start order, read from the trace when the
// ring is snapshotted; grandchildren and model-time spans are not stages,
// and stages the caller passes to Add are ignored.
func TestRingStagesDerivedOnRead(t *testing.T) {
	id := fmt.Sprintf("%032x", 1)
	tr := telemetry.NewTrace(id)
	root := tr.StartSpan("recommend", nil)
	parse := tr.StartSpan("parse", root)
	parse.End()
	compute := tr.StartSpan("compute", root)
	tr.StartSpan("inner", compute).End()
	tr.AddVirtualSpan("IMe", "solve", compute.ID(), 0, 1)
	compute.End()
	durUS := root.End()

	r := newRequestRing(4)
	d := RequestDigest{ID: id, Endpoint: "recommend", Status: 200, DurationUS: durUS,
		Stages: []StageTiming{{Name: "stale"}}}
	r.Add(d, tr, root.ID())
	got := r.Snapshot().Recent[0]
	var names []string
	for _, st := range got.Stages {
		names = append(names, st.Name)
	}
	if fmt.Sprint(names) != "[parse compute]" {
		t.Fatalf("stages = %v, want [parse compute]", names)
	}
	if got.DurationUS != durUS {
		t.Fatalf("duration = %g, want the root's %g", got.DurationUS, durUS)
	}
}

func TestNilRingInert(t *testing.T) {
	var r *requestRing
	r.Add(digestN(1, 1), nil, 0)
	if r.Len() != 0 {
		t.Fatal("nil ring not inert")
	}
	if _, ok := r.Trace("x"); ok {
		t.Fatal("nil ring returned a trace")
	}
	snap := r.Snapshot()
	if snap.Recent == nil || len(snap.Recent) != 0 {
		t.Fatalf("nil ring snapshot = %+v (views must be empty arrays, not null)", snap)
	}
}

// TestDigestGoldenJSON pins the /debug/requests wire format: the digest
// field names are the debugging API surface, and a round-trip through
// JSON must be lossless.
func TestDigestGoldenJSON(t *testing.T) {
	snap := RingSnapshot{
		Recent: []RequestDigest{{
			ID:         "0123456789abcdef0123456789abcdef",
			Endpoint:   "predict",
			Status:     200,
			Source:     "compute",
			DurationUS: 1234.5,
			EnergyJ:    56789.25,
			Stages: []StageTiming{
				{Name: "parse", DurUS: 10},
				{Name: "cache-lookup", DurUS: 2.5},
				{Name: "compute", DurUS: 1200},
			},
		}},
		Slowest: nil,
		Errored: []RequestDigest{{
			ID:         "fedcbafedcbafedcbafedcba" + "fedcba98",
			Endpoint:   "sweep",
			Status:     504,
			Source:     "error",
			DurationUS: 250000,
			Error:      "request deadline exceeded",
		}},
	}
	snap.Slowest = snap.Recent

	got, err := marshalBody(snap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/digest_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("digest JSON drifted from testdata/digest_golden.json:\n got: %s\nwant: %s", got, want)
	}

	var back RingSnapshot
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("round trip lost data:\n in: %+v\nout: %+v", snap, back)
	}
}
