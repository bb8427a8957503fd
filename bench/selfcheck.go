package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// selfCheck is the A/A test of the suite itself. It runs every selected
// workload `runs` times in each of two sets — a fresh process per run, as
// the acceptance protocol does, seeds seed, seed+1, … in both sets, the
// sets interleaved so that both see the same stretch of machine time —
// and prints every run made, then per workload × metric both medians, the
// gap between them, the spread within each set, and the bound. It fails when a gap or a
// spread (set-up time's excepted, as in the protocol) exceeds its bound,
// or when the same seed gave two different fingerprints.
func selfCheck(selected []*workload, cfg config, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	printEnvironment(cfg)
	var failures []string
	var table strings.Builder
	fmt.Fprintf(&table, "%-15s %-16s %13s %13s %8s %8s %8s %7s\n", "workload", "metric", "median A", "median B", "gap", "spread A", "spread B", "bound")
	for _, wl := range selected {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
		}
		for r := 0; r < runs; r++ {
			seed := cfg.seed + int64(r)
			var fps [2]string
			for s := range sets {
				line, fp, err := childRun(self, wl, cfg, seed)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", wl.name, seed, err)
				}
				fmt.Printf("run %-15s set %c seed %d:", wl.name, 'A'+s, seed)
				for _, d := range endToEnd {
					v := line.Metrics[d.name].Value
					sets[s][d.name] = append(sets[s][d.name], v)
					fmt.Printf(" %s=%.6g", d.name, v)
				}
				fmt.Println()
				fps[s] = fp
			}
			if !sameFingerprint(fps[0], fps[1]) {
				failures = append(failures, fmt.Sprintf("%s seed %d: fingerprints differ: %s vs %s", wl.name, seed, fps[0], fps[1]))
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			ma, mb := median(a), median(b)
			gap := worsening(d, ma, mb)
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := ""
			if gap > d.bound {
				verdict = " GAP"
			}
			if d.name != "setup_s" && max(sa, sb) > d.bound {
				verdict += " SPREAD"
			}
			if verdict != "" {
				failures = append(failures, fmt.Sprintf("%s %s:%s", wl.name, d.name, verdict))
			}
			fmt.Fprintf(&table, "%-15s %-16s %13.6g %13.6g %+7.2f%% %7.2f%% %7.2f%% %6.0f%%%s\n",
				wl.name, d.name, ma, mb, 100*gap, 100*sa, 100*sb, 100*d.bound, verdict)
		}
	}
	fmt.Print(table.String())
	if len(failures) > 0 {
		return fmt.Errorf("self-check failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("self-check passed: every gap and spread is within its bound, fingerprints agree")
	return nil
}

// worsening is how much worse b is than a, as a share of a; negative
// when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// childRun runs one workload once in a fresh process of this binary and
// returns its result line and its fingerprint line.
func childRun(self string, wl *workload, cfg config, seed int64) (resultLine, string, error) {
	cmd := exec.Command(self, "-workload", wl.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-out", cfg.outDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var line resultLine
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err != nil {
		return line, "", fmt.Errorf("%w\n%s", err, stdout)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return line, "", fmt.Errorf("last line is not a result: %w", err)
	}
	var fp string
	for _, l := range lines {
		if _, rest, ok := strings.Cut(string(l), "fingerprint seed="); ok {
			_, fp, _ = strings.Cut(rest, " ")
		}
	}
	return line, fp, nil
}

// sameFingerprint reports whether two printed fingerprints match: exactly,
// but for joules within their tolerance.
func sameFingerprint(a, b string) bool {
	var fa, fb fingerprint
	if json.Unmarshal([]byte(a), &fa) != nil || json.Unmarshal([]byte(b), &fb) != nil {
		return false
	}
	return len(fa.diff(fb)) == 0
}
