package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// recordN is a finished predict request with the i-th trace ID and the
// given duration.
func recordN(i int, dur time.Duration) *requestRecord {
	rec := &requestRecord{endpoint: "predict", status: 200, source: sourceCompute, dur: dur}
	binary.BigEndian.PutUint64(rec.id[8:], uint64(i))
	return rec
}

// idN is recordN(i, ·)'s trace ID in hex.
func idN(i int) string { return fmt.Sprintf("%032x", i) }

func TestRingRecencyEviction(t *testing.T) {
	r := newRequestRing(4)
	for i := 1; i <= 10; i++ {
		r.Add(recordN(i, 1))
	}
	snap := r.Snapshot()
	if len(snap.Recent) != 4 {
		t.Fatalf("recent = %d, want 4", len(snap.Recent))
	}
	// Newest first.
	if snap.Recent[0].ID != idN(10) || snap.Recent[3].ID != idN(7) {
		t.Fatalf("recent order: %+v", snap.Recent)
	}
	// All 10 had equal durations; the slowest view keeps up to its own
	// bound, so every trace is still fetchable via some view.
	for i := 1; i <= 10; i++ {
		if _, ok := r.Trace(idN(i)); !ok {
			t.Fatalf("trace %d lost while still in the slowest view", i)
		}
	}
}

func TestRingSlowRequestOutlivesRecency(t *testing.T) {
	r := newRequestRing(2)
	slow := recordN(999, time.Second)
	slow.endpoint = "sweep"
	r.Add(slow)
	// Flood with fast requests far past the recency bound.
	for i := 1; i <= 50; i++ {
		r.Add(recordN(i, time.Duration(i)*time.Microsecond))
	}
	snap := r.Snapshot()
	for _, d := range snap.Recent {
		if d.ID == idN(999) {
			t.Fatal("slow request still in recent after 50 arrivals")
		}
	}
	if snap.Slowest[0].ID != idN(999) || snap.Slowest[0].DurationUS != 1e6 {
		t.Fatalf("slowest[0] = %+v, want the 1s request", snap.Slowest[0])
	}
	// The rest of the view is the 31 slowest floods, slowest first.
	if len(snap.Slowest) != ringSlowest || snap.Slowest[1].ID != idN(50) || snap.Slowest[ringSlowest-1].ID != idN(20) {
		t.Fatalf("slowest view = %d digests, [1]=%s, last=%s", len(snap.Slowest), snap.Slowest[1].ID, snap.Slowest[len(snap.Slowest)-1].ID)
	}
	if _, ok := r.Trace(idN(999)); !ok {
		t.Fatal("slow request's trace not fetchable")
	}
}

func TestRingErroredView(t *testing.T) {
	r := newRequestRing(2)
	failed := recordN(7777, 3*time.Microsecond)
	failed.status, failed.errMsg = 504, "deadline"
	r.Add(failed)
	for i := 1; i <= 50; i++ {
		r.Add(recordN(i, 100*time.Microsecond))
	}
	snap := r.Snapshot()
	if len(snap.Errored) != 1 || snap.Errored[0].ID != idN(7777) || snap.Errored[0].Error != "deadline" {
		t.Fatalf("errored = %+v", snap.Errored)
	}
	if _, ok := r.Trace(idN(7777)); !ok {
		t.Fatal("errored request's trace not fetchable")
	}
}

func TestRingFullyEvictedTraceGone(t *testing.T) {
	r := newRequestRing(1)
	// Saturate the slowest view so later equal-duration entries are only
	// held by recency.
	for i := 1; i <= ringSlowest; i++ {
		r.Add(recordN(i, time.Millisecond))
	}
	r.Add(recordN(100, time.Microsecond))
	r.Add(recordN(101, time.Microsecond))
	if _, ok := r.Trace(idN(100)); ok {
		t.Fatal("victim trace still fetchable after eviction from every view")
	}
	if _, ok := r.Trace(idN(1)); !ok {
		t.Fatal("slowest-held trace evicted")
	}
	// A replayed trace ID fetches the newest request that carried it.
	again := recordN(1, time.Millisecond)
	again.status = 201
	r.Add(again)
	var buf bytes.Buffer
	if tr, ok := r.Trace(idN(1)); !ok || tr.WriteChromeTrace(&buf) != nil || !strings.Contains(buf.String(), `"status":201`) {
		t.Fatalf("replayed ID does not fetch the newest request: %s", buf.String())
	}
}

// TestRingStagesDerivedOnRead: a digest's stages are the stages that ran,
// in the order they started, read from the record when the ring is
// snapshotted; its energy is its cells' in cell order, and its duration
// the root's.
func TestRingStagesDerivedOnRead(t *testing.T) {
	rec := recordN(1, 80*time.Microsecond)
	rec.stages[stageParse] = interval{0, 10 * time.Microsecond}
	rec.stages[stageCompute] = interval{20 * time.Microsecond, 70 * time.Microsecond}
	rec.ran = 1<<stageParse | 1<<stageCompute
	e1, e2 := 0.1, 0.2
	rec.cells = []CellResult{{Algorithm: "IMe", DurationS: 1, TotalJ: e1}, {Algorithm: "IMe", DurationS: 2, TotalJ: e2}}

	r := newRequestRing(4)
	r.Add(rec)
	got := r.Snapshot().Recent[0]
	want := []StageTiming{{Name: "parse", DurUS: 10}, {Name: "compute", DurUS: 50}}
	if !reflect.DeepEqual(got.Stages, want) {
		t.Fatalf("stages = %+v, want %+v", got.Stages, want)
	}
	if got.DurationUS != 80 || got.EnergyJ != e1+e2 {
		t.Fatalf("duration, energy = %g, %g; want 80, %g", got.DurationUS, got.EnergyJ, e1+e2)
	}
}

func TestNilRingInert(t *testing.T) {
	var r *requestRing
	r.Add(recordN(1, 1))
	if _, ok := r.Trace(idN(1)); ok {
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
