package server

import (
	"context"
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
// code) request counter, the SLO tracker, the request trace + digest
// ring, and the structured access log.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	traced := s.ring != nil && isComputeEndpoint(endpoint)
	em := s.m.endpoint(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.m.httpInflight.Add(1)
		defer s.m.httpInflight.Add(-1)

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()

		var rt *requestTrace
		if traced {
			// Honour an inbound traceparent (so load generators and
			// upstream callers can name the trace they want to fetch),
			// fall back to a fresh ID, and advertise the result.
			id, _ := telemetry.ParseTraceparent(r.Header.Get("Traceparent"))
			tr := telemetry.NewTrace(id)
			rt = &requestTrace{trace: tr, root: tr.StartSpan(endpoint, nil)}
			rt.root.SetAttr("method", r.Method)
			rt.root.SetAttr("path", r.URL.Path)
			w.Header().Set("Traceparent", tr.Traceparent())
			ctx = withRequestTrace(ctx, rt)
		}

		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r.WithContext(ctx))

		durS := time.Since(start).Seconds()
		em.latency.ObserveWithExemplar(durS, rt.traceID())
		s.m.requests(endpoint, sw.code).Inc()
		s.slo.Record(endpoint, durS, sw.code)

		if rt != nil {
			rt.root.SetAttr("status", sw.code)
			rt.root.SetAttr("source", rt.source)
			durUS := rt.root.End()
			s.ring.Add(RequestDigest{
				ID:         rt.traceID(),
				Endpoint:   endpoint,
				Status:     sw.code,
				Source:     rt.source,
				DurationUS: durUS,
				EnergyJ:    rt.energyJ,
				Error:      sw.errorMessage(),
			}, rt.trace, rt.root.ID())
		}
		s.logAccess(endpoint, sw, rt, durS)
	})
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
func (s *Server) logAccess(endpoint string, sw *statusWriter, rt *requestTrace, durS float64) {
	if s.log == nil {
		return
	}
	kv := []any{"endpoint", endpoint, "status", sw.code, "dur_s", durS}
	if rt != nil {
		kv = append(kv, "trace", rt.traceID(), "source", rt.source)
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
// and the access log.
type statusWriter struct {
	http.ResponseWriter
	code    int
	errBody []byte
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
