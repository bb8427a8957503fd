package server

import (
	"context"

	"repro/internal/telemetry"
)

// Request-scoped tracing glue: a requestTrace travels down the pipeline
// in the request context, collecting one wall-clock span per serving
// stage (parse, cache, surrogate, coalesce, admission, compute, marshal)
// and — when a compute actually runs — the modelled solver's virtual-time
// spans with their energy totals. A nil *requestTrace is inert, so the
// untraced path (tracing disabled, cache warming, debug endpoints) costs
// one branch per stage.

// requestTrace is one traced request's state. It is written by the
// request's own goroutine only (the coalescer runs the compute closure on
// the leader's goroutine; followers never run it), so the summary fields
// need no lock.
type requestTrace struct {
	trace *telemetry.Trace
	root  *telemetry.Span
	// compute is the live compute-stage span while the compute closure
	// runs; the modelled solver's virtual spans attach under it.
	compute *telemetry.Span

	// Summary fields for the request digest, set before the handler
	// returns: how the response was produced and what the modelled job
	// cost (zero when no model ran).
	source  string // cache | surrogate | coalesced | compute | error
	energyJ float64
}

type ctxKeyTrace struct{}

// withRequestTrace attaches rt to the context.
func withRequestTrace(ctx context.Context, rt *requestTrace) context.Context {
	return context.WithValue(ctx, ctxKeyTrace{}, rt)
}

// requestTraceFrom extracts the request's trace, or nil when the request
// is untraced (tracing disabled, or a background context).
func requestTraceFrom(ctx context.Context) *requestTrace {
	rt, _ := ctx.Value(ctxKeyTrace{}).(*requestTrace)
	return rt
}

// stage opens one serving-stage span under the request root.
func (rt *requestTrace) stage(name string) *telemetry.Span {
	if rt == nil {
		return nil
	}
	return rt.trace.StartSpan(name, rt.root)
}

// setSource records how the response was produced (last writer wins: the
// pipeline reports the stage that actually answered).
func (rt *requestTrace) setSource(source string) {
	if rt != nil {
		rt.source = source
	}
}

// traceID returns the trace ID, or "" untraced — the form the exemplar
// API wants.
func (rt *requestTrace) traceID() string {
	if rt == nil {
		return ""
	}
	return rt.trace.ID()
}

// --- modelled solver attachment ---

// attachSolver hangs one modelled cell under the compute span as a
// virtual span on the algorithm's track: a "solve" wrapper carrying the
// energy totals, tiled by the compute/exposed-comm split when the caller
// knows it (the two children partition the wrapper exactly — perfmodel
// guarantees DurationS = ComputeS + ExposedCommS; recommend and sweep
// responses carry no split and pass zeros). startS lets sweep cells tile
// sequentially per track; the return value is the cell's end time.
func (rt *requestTrace) attachSolver(startS float64, c CellResult, computeS, exposedCommS float64) float64 {
	if rt == nil {
		return startS
	}
	rt.energyJ += c.TotalJ
	id := rt.trace.AddVirtualSpan(c.Algorithm, "solve", rt.compute.ID(), startS, startS+c.DurationS,
		telemetry.Attr{Key: "n", Value: c.N},
		telemetry.Attr{Key: "ranks", Value: c.Ranks},
		telemetry.Attr{Key: "duration_s", Value: c.DurationS},
		telemetry.Attr{Key: "energy_j", Value: c.TotalJ},
		telemetry.Attr{Key: "pkg_j", Value: c.PkgJ},
		telemetry.Attr{Key: "dram_j", Value: c.DramJ},
	)
	if computeS > 0 || exposedCommS > 0 {
		rt.trace.AddVirtualSpan(c.Algorithm, "compute", id, startS, startS+computeS)
		rt.trace.AddVirtualSpan(c.Algorithm, "exposed-comm", id, startS+computeS, startS+computeS+exposedCommS)
	}
	return startS + c.DurationS
}
