package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// tracedShare is the part of -seconds the selected workload spends each
// way — tracing off, tracing on — in a traced run. The rest of the run
// is the other workloads' short passes and the layer probes.
const tracedShare = 0.2

// tracedRun produces the per-layer metrics. The selected workload runs
// in rounds that alternate tracing off and on — the ratio of their
// medians is the tracing overhead — then every other workload makes a
// short traced pass for its span metrics, and the layer probes run last.
func tracedRun(sel *workload, cfg config) resultLine {
	values := make(map[string]float64)
	var all sample // attempts and failures over every pass
	err := tracedPasses(sel, cfg, values, &all)
	for _, probe := range []func(map[string]float64) error{
		probeMPI, probeKernel, probeModel,
		func(out map[string]float64) error { return probeStore(cfg.outDir, out) },
	} {
		if err == nil {
			err = probe(values)
		}
	}
	metrics, missing := report(perLayer, values)
	if err == nil && len(missing) > 0 {
		err = fmt.Errorf("no value for %s", strings.Join(missing, ", "))
	}
	for _, f := range all.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	if err != nil {
		fmt.Printf("%s: traced run FAILED: %v\n", sel.name, err)
		all.failed++
	} else {
		fmt.Printf("%s: traced run, per-layer metrics\n", sel.name)
		for _, d := range perLayer {
			fmt.Printf("  %-28s %14.6g %s\n", d.name, values[d.name], d.unit)
		}
	}
	return resultLine{
		Correct:   all.failed == 0 && all.attempted > 0,
		Attempted: max(all.attempted, 1),
		Failed:    all.failed,
		Metrics:   metrics,
	}
}

// tracedPasses runs every workload under the span recorder and collects
// what their spans say into values.
func tracedPasses(sel *workload, cfg config, values map[string]float64, all *sample) error {
	_, nRounds, maxChunks := cfg.shape()
	for _, wl := range workloads {
		inst, _, err := setUp(wl, cfg)
		if err != nil {
			return err
		}
		tr := newTracer()
		var traced sample
		if wl == sel {
			var plain sample
			budget := time.Duration(cfg.seconds * tracedShare / float64(nRounds) * float64(time.Second))
			var calib []float64
			next := wl.warmup
			for r := 0; r < nRounds; r++ {
				calib = append(calib, calibrate())
				next = measure(wl, inst, next, budget, maxChunks, nil, &plain)
				next = measure(wl, inst, next, budget, maxChunks, tr, &traced)
			}
			values["bench.calib_spread"] = spread(calib)
			values["bench.trace_overhead_ratio"] = median(traced.opMS) / median(plain.opMS)
			fmt.Printf("%s: op_p50_ms %.6g traced (%d ops), %.6g untraced (%d ops), in alternating rounds\n",
				wl.name, median(traced.opMS), len(traced.opMS), median(plain.opMS), len(plain.opMS))
			all.merge(wl, &plain)
		} else {
			chunks := (wl.miniOps + wl.chunk - 1) / wl.chunk
			if maxChunks > 0 {
				chunks = maxChunks
			}
			measure(wl, inst, wl.warmup, 0, chunks, tr, &traced)
		}
		all.merge(wl, &traced)

		err = inst.layers(tr, values)
		if cerr := inst.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		if wl == sel {
			printSelfTimes(wl, tr)
			path := filepath.Join(cfg.outDir, "trace.json")
			if err := tr.writeJSON(path); err != nil {
				return err
			}
			fmt.Printf("%s: %d spans written to %s\n", wl.name, len(tr.spans), path)
		}
	}
	return nil
}

// printSelfTimes prints, per span name, the summed self time of the
// selected workload's traced ops: where the op's wall actually went.
func printSelfTimes(wl *workload, tr *tracer) {
	self := selfByName(tr.spans)
	names := make([]string, 0, len(self))
	var total float64
	for name, ms := range self {
		names = append(names, name)
		total += ms
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Printf("%s: self time by span (span minus what its children cover)\n", wl.name)
	for _, name := range names {
		fmt.Printf("  %-28s %12.3f ms  %5.1f%%\n", name, self[name], 100*self[name]/total)
	}
}
