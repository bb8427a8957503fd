package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_s", "request latency", []float64{0.01, 0.1})
	h.ObserveWithExemplar(0.005, "aaaa")
	h.ObserveWithExemplar(0.05, "bbbb")
	h.ObserveWithExemplar(0.05, "") // untagged: must not displace the exemplar
	h.ObserveWithExemplar(5, "cccc")
	ex := h.Exemplars()
	if len(ex) != 3 {
		t.Fatalf("exemplar slots = %d, want 3", len(ex))
	}
	if ex[0] == nil || ex[0].TraceID != "aaaa" || ex[0].Value != 0.005 {
		t.Fatalf("bucket 0 exemplar = %+v", ex[0])
	}
	if ex[1] == nil || ex[1].TraceID != "bbbb" {
		t.Fatalf("bucket 1 exemplar = %+v", ex[1])
	}
	if ex[2] == nil || ex[2].TraceID != "cccc" {
		t.Fatalf("+Inf exemplar = %+v", ex[2])
	}
	// Newest tagged observation wins.
	h.ObserveWithExemplar(0.003, "dddd")
	if got := h.Exemplars()[0].TraceID; got != "dddd" {
		t.Fatalf("bucket 0 exemplar after update = %q", got)
	}
	// Counts include both tagged and untagged observations.
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
}

func TestExemplarExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_s", "latency", []float64{0.01})
	h.ObserveWithExemplar(0.002, "0123456789abcdef0123456789abcdef")
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `req_s_bucket{le="0.01"} 1 # {trace_id="0123456789abcdef0123456789abcdef"} 0.002`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("exposition missing exemplar suffix:\n%s", buf.String())
	}
	// Buckets without exemplars stay in the plain format.
	if !strings.Contains(buf.String(), `req_s_bucket{le="+Inf"} 1`+"\n") {
		t.Fatalf("+Inf bucket malformed:\n%s", buf.String())
	}
}

// TestExemplarConcurrentRecording hammers one histogram from many
// goroutines; under -race this is the exemplar plane's data-race test.
func TestExemplarConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_s", "latency", []float64{0.01, 0.1, 1})
	ids := []string{"aaaa", "bbbb", "cccc", "dddd"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.ObserveWithExemplar(float64(i%200)/100, ids[w%len(ids)])
				if i%100 == 0 {
					h.Exemplars()
				}
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	for i, ex := range h.Exemplars() {
		if ex == nil {
			continue
		}
		found := false
		for _, id := range ids {
			if ex.TraceID == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("bucket %d exemplar has torn trace id %q", i, ex.TraceID)
		}
	}
	// Nil histogram stays inert.
	var nilH *Histogram
	nilH.ObserveWithExemplar(1, "x")
	if nilH.Exemplars() != nil {
		t.Fatal("nil histogram exemplars not nil")
	}
}
