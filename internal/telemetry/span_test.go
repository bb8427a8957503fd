package telemetry

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
)

func TestTraceSpansNestAndSort(t *testing.T) {
	tr := NewTrace("0123456789abcdef0123456789abcdef")
	root := tr.AddSpan(SpanRecord{Name: "recommend", DurUS: 10})
	solve := tr.AddVirtualSpan("IMe", "solve", root, 0, 2.5, Attr{Key: "energy_j", Value: 100.0})
	tr.AddVirtualSpan("IMe", "compute", solve, 0, 2.0)
	tr.AddSpan(SpanRecord{Name: "cache", Parent: root, StartUS: 1, DurUS: 2, Attrs: []Attr{{Key: "hit", Value: false}}})

	spans := tr.sorted()
	if len(spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(spans))
	}
	// Wall track sorts first (empty track name), wrappers before children.
	if spans[0].Name != "recommend" || spans[0].Track != "" || spans[0].Parent != 0 {
		t.Fatalf("first span = %+v, want the root", spans[0])
	}
	if spans[1].Name != "cache" || spans[1].Parent != spans[0].ID || spans[1].Attrs[0].Key != "hit" {
		t.Fatalf("second span = %+v, want cache under root", spans[1])
	}
	if spans[2].Track != "IMe" || spans[2].Name != "solve" || spans[2].DurUS != 2.5e6 {
		t.Fatalf("virtual span = %+v", spans[2])
	}
	if spans[3].Parent != spans[2].ID {
		t.Fatalf("virtual child not parented: %+v", spans[3])
	}
	if len(spans[2].Attrs) != 1 || spans[2].Attrs[0].Key != "energy_j" {
		t.Fatalf("virtual attrs = %+v", spans[2].Attrs)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	raw := NewTraceID()
	h := FormatTraceparent(raw)
	id, ok := ParseTraceparent(h)
	if !ok || id != hex.EncodeToString(raw[:]) {
		t.Fatalf("ParseTraceparent(%q) = %q, %v; want %x", h, id, ok, raw)
	}
	for _, bad := range []string{
		"",
		"00-short-0000000000000001-01",
		"00-zzzz456789abcdef0123456789abcdef-0000000000000001-01",
		"00-00000000000000000000000000000000-0000000000000001-01",  // all-zero trace id
		"00-0123456789abcdef0123456789abcdef-01",                   // missing field
		"zz-0123456789abcdef0123456789abcdef-zzzzzzzzzzzzzzzz-zz",  // version, parent-id and flags not hex
		"zz-0123456789abcdef0123456789abcdef-0000000000000001-01",  // version not hex
		"00-0123456789abcdef0123456789abcdef-000000000000000g-01",  // parent-id not hex
		"00-0123456789abcdef0123456789abcdef-0000000000000001-0x",  // flags not hex
		"ff-0123456789abcdef0123456789abcdef-0000000000000001-01",  // version ff is invalid
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01",  // all-zero parent-id
		"00-0123456789abcdef0123456789abcdef-0000000000000001-01-", // trailing dash
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
	// Uppercase hex is normalised to lowercase per the W3C spec.
	id, ok = ParseTraceparent("00-0123456789ABCDEF0123456789ABCDEF-0000000000000001-01")
	if !ok || id != "0123456789abcdef0123456789abcdef" {
		t.Fatalf("uppercase traceparent: %q, %v", id, ok)
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := make(map[[16]byte]bool)
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if id == [16]byte{} {
			t.Fatal("all-zero trace id")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %x", id)
		}
		seen[id] = true
	}
}

// TestWriteChromeTraceEnvelope pins the export format: the
// {"traceEvents":[...]} envelope with X events carrying span/parent IDs
// and attributes in args — the shape mpi.ReadChromeTrace parses (the
// cross-package parse test lives in internal/server, which may import
// both sides).
func TestWriteChromeTraceEnvelope(t *testing.T) {
	tr := NewTrace("deadbeefdeadbeefdeadbeefdeadbeef")
	root := tr.AddSpan(SpanRecord{Name: "predict", DurUS: 20})
	st := tr.AddSpan(SpanRecord{Name: "compute", Parent: root, StartUS: 5, DurUS: 10})
	tr.AddVirtualSpan("ScaLAPACK", "solve", st, 0, 3.25, Attr{Key: "energy_j", Value: 42.0})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Cat  string         `json:"cat"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	var xEvents, modelEvents int
	var sawEnergy bool
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		xEvents++
		if e.Cat == "model" {
			modelEvents++
			if e.Pid != pidModel {
				t.Fatalf("model span on pid %d", e.Pid)
			}
			if v, ok := e.Args["energy_j"].(float64); ok && v == 42.0 {
				sawEnergy = true
			}
			if e.Dur != 3.25e6 {
				t.Fatalf("model span dur = %g µs, want 3.25e6", e.Dur)
			}
		}
		if _, ok := e.Args["span"]; !ok {
			t.Fatalf("X event %q without span id", e.Name)
		}
	}
	if xEvents != 3 || modelEvents != 1 || !sawEnergy {
		t.Fatalf("xEvents=%d modelEvents=%d sawEnergy=%v", xEvents, modelEvents, sawEnergy)
	}
	if !strings.Contains(buf.String(), "serving deadbeefdeadbeefdeadbeefdeadbeef") {
		t.Fatal("process metadata does not name the trace")
	}
}

// TestChromeTraceThreadSortIndex: virtual tracks carry a sort index in
// track-name order, not first-span order, so fleet timelines render
// node-0000, node-0001, ... top to bottom.
func TestChromeTraceThreadSortIndex(t *testing.T) {
	tr := NewTrace("deadbeefdeadbeefdeadbeefdeadbeef")
	// First spans land on the tracks out of name order.
	tr.AddVirtualSpan("node-0002", "a", 0, 0, 1)
	tr.AddVirtualSpan("node-0000", "b", 0, 0, 1)
	tr.AddVirtualSpan("node-0001", "c", 0, 0, 1)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	tidName := map[int]string{}
	tidSort := map[int]float64{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" || e.Pid != pidModel {
			continue
		}
		switch e.Name {
		case "thread_name":
			tidName[e.Tid] = e.Args["name"].(string)
		case "thread_sort_index":
			tidSort[e.Tid] = e.Args["sort_index"].(float64)
		}
	}
	if len(tidName) != 3 || len(tidSort) != 3 {
		t.Fatalf("metadata: names=%v sorts=%v", tidName, tidSort)
	}
	for tid, name := range tidName {
		var want float64
		switch name {
		case "node-0000":
			want = 0
		case "node-0001":
			want = 1
		case "node-0002":
			want = 2
		default:
			t.Fatalf("unexpected track %q", name)
		}
		if tidSort[tid] != want {
			t.Fatalf("track %q sort_index = %g, want %g", name, tidSort[tid], want)
		}
	}
}

func TestNilTraceInert(t *testing.T) {
	var tr *Trace
	if tr.sorted() != nil || tr.AddVirtualSpan("t", "n", 0, 0, 1) != 0 || tr.AddSpan(SpanRecord{Name: "x"}) != 0 {
		t.Fatal("nil trace not inert")
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("nil trace export must error")
	}
}
