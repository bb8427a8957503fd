package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// formatValue renders a float the way the Prometheus text format expects:
// shortest round-trip representation, `+Inf`/`-Inf` spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// series renders one exposition line: base name, merged label fragment
// (series labels plus any extra pairs, e.g. `le`), and value.
func series(w io.Writer, base, labels, extra, value string) {
	switch {
	case labels == "" && extra == "":
		fmt.Fprintf(w, "%s %s\n", base, value)
	case labels == "":
		fmt.Fprintf(w, "%s{%s} %s\n", base, extra, value)
	case extra == "":
		fmt.Fprintf(w, "%s{%s} %s\n", base, labels, value)
	default:
		fmt.Fprintf(w, "%s{%s,%s} %s\n", base, labels, extra, value)
	}
}

// WritePrometheus emits the registry in the Prometheus text exposition
// format (version 0.0.4): one HELP/TYPE header per metric family, then the
// series sorted by label set. Output is deterministic.
func (r *Registry) WritePrometheus(out io.Writer) error {
	w := bufio.NewWriter(out)
	var lastBase string
	for _, e := range r.snapshot() {
		if e.base != lastBase {
			if e.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", e.base, e.help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", e.base, e.kind)
			lastBase = e.base
		}
		switch e.kind {
		case kindCounter:
			series(w, e.base, e.labels, "", formatValue(e.c.Value()))
		case kindGauge:
			series(w, e.base, e.labels, "", formatValue(e.g.Value()))
		case kindHistogram:
			bounds := e.h.Bounds()
			counts := e.h.BucketCounts()
			exemplars := e.h.Exemplars()
			var cum uint64
			for i, c := range counts {
				cum += c
				le := "+Inf"
				if i < len(bounds) {
					le = formatValue(bounds[i])
				}
				value := strconv.FormatUint(cum, 10)
				// OpenMetrics-style exemplar suffix: the bucket's latest
				// tagged observation, linking the series to a request trace.
				if ex := exemplars[i]; ex != nil {
					value += fmt.Sprintf(" # {trace_id=%q} %s", ex.TraceID, formatValue(ex.Value))
				}
				series(w, e.base+"_bucket", e.labels, fmt.Sprintf("le=%q", le), value)
			}
			series(w, e.base+"_sum", e.labels, "", formatValue(e.h.Sum()))
			series(w, e.base+"_count", e.labels, "", strconv.FormatUint(e.h.Count(), 10))
		}
	}
	return w.Flush()
}
