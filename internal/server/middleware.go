package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// instrument wraps a route handler with the cross-cutting serving
// concerns: the per-request deadline (which the admission queue and
// coalesced waits honour), the in-flight gauge, the latency histogram
// (with a trace-ID exemplar when the request is traced), the (endpoint,
// code) request counter — which the SLO tracker reads — the request
// record and digest ring, and the structured access log. The request's
// two clock reads, at its start and its end, time all of them: the
// histogram, its exemplar, the record's root span, its digest and the
// access log report one latency.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	traced := s.ring != nil && isComputeEndpoint(endpoint)
	em := s.m.endpoint(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.m.httpInflight.Add(1)
		defer s.m.httpInflight.Add(-1)

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()

		var sw *statusWriter
		var traceID string
		if traced {
			tw := &tracedWriter{rec: requestRecord{id: requestTraceID(r), start: start,
				endpoint: endpoint, method: r.Method, path: r.URL.Path}}
			tw.sw = statusWriter{ResponseWriter: w, code: http.StatusOK, rec: &tw.rec}
			sw = &tw.sw
			// Advertise the trace; the exemplar's trace ID is the header's.
			tw.traceparent[0] = telemetry.FormatTraceparent(tw.rec.id)
			w.Header()["Traceparent"] = tw.traceparent[:] // a canonical key
			traceID = tw.traceparent[0][3:35]
		} else {
			sw = &statusWriter{ResponseWriter: w, code: http.StatusOK}
		}
		h(sw, r.WithContext(ctx))

		dur := time.Since(start)
		durS := dur.Seconds()
		em.latency.ObserveWithExemplar(durS, traceID)
		s.m.requests(endpoint, sw.code).Inc()
		s.slo.Tick(start.Add(dur))
		if rec := sw.rec; rec != nil {
			rec.dur, rec.status, rec.errMsg = dur, sw.code, sw.errorMessage()
			s.ring.Add(rec)
		}
		s.logAccess(endpoint, sw, traceID, durS)
	})
}

// requestTraceID honours an inbound traceparent, so load generators and
// upstream callers can name the trace they want to fetch, and draws a
// fresh ID otherwise. net/http has canonicalised the inbound keys, so the
// lookup indexes the map instead of paying Header.Get's canonicalisation.
func requestTraceID(r *http.Request) (id [16]byte) {
	if h := r.Header["Traceparent"]; len(h) > 0 {
		if s, ok := telemetry.ParseTraceparent(h[0]); ok {
			hex.Decode(id[:], []byte(s))
			return id
		}
	}
	return telemetry.NewTraceID()
}

// isComputeEndpoint reports whether endpoint runs the serving pipeline
// (only those requests are traced; /metrics and /healthz stay untraced).
func isComputeEndpoint(endpoint string) bool {
	for _, ep := range computeEndpoints {
		if ep == endpoint {
			return true
		}
	}
	return false
}

// logAccess emits one structured record per response: sampled Info for
// successes (okLogSampleEvery), full-rate Warn for client errors, Error
// for server errors. A nil configured logger drops everything.
func (s *Server) logAccess(endpoint string, sw *statusWriter, traceID string, durS float64) {
	if s.log == nil {
		return
	}
	kv := []any{"endpoint", endpoint, "status", sw.code, "dur_s", durS}
	if sw.rec != nil {
		kv = append(kv, "trace", traceID, "source", sourceNames[sw.rec.source])
	}
	switch {
	case sw.code >= 500:
		s.log.Error("request failed", append(kv, "err", sw.errorMessage())...)
	case sw.code >= 400:
		s.log.Warn("request rejected", append(kv, "err", sw.errorMessage())...)
	default:
		s.okLog.Info("request served", kv...)
	}
}

// statusWriter captures the response code — and, for error responses,
// the body's error message — for the request counter, the digest ring
// and the access log. A traced request's record travels with it (see
// recordOf).
type statusWriter struct {
	http.ResponseWriter
	code    int
	errBody []byte
	rec     *requestRecord // nil when untraced
}

// tracedWriter is a traced request's writer, its record and its
// Traceparent header value, allocated together.
type tracedWriter struct {
	sw          statusWriter
	rec         requestRecord
	traceparent [1]string
}

// errBodyCap bounds how much of an error body the digest retains.
const errBodyCap = 512

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code >= 400 && len(w.errBody) < errBodyCap {
		w.errBody = append(w.errBody, b[:min(len(b), errBodyCap-len(w.errBody))]...)
	}
	return w.ResponseWriter.Write(b)
}

// errorMessage extracts the error string from a captured ErrorResponse
// body ("" for successes).
func (w *statusWriter) errorMessage() string {
	if len(w.errBody) == 0 {
		return ""
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.errBody, &er); err == nil && er.Error != "" {
		return er.Error
	}
	return strings.TrimSpace(string(w.errBody))
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Status int    `json:"status"`
	Error  string `json:"error"`
}

// writeBody writes a pre-marshalled JSON body verbatim — cached and cold
// responses go through this single path, which is what makes them
// byte-identical.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

// writeError writes the uniform JSON error body.
func writeError(w http.ResponseWriter, code int, msg string) {
	body, err := json.Marshal(ErrorResponse{Status: code, Error: msg})
	if err != nil { // ErrorResponse cannot fail to marshal
		body = []byte(`{"status":500,"error":"error encoding error"}`)
	}
	writeBody(w, code, append(body, '\n'))
}

// marshalBody renders a response value the one canonical way (stable
// field order, trailing newline) so that equal values yield equal bytes.
func marshalBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
