package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// printEnvironment stamps the output with what a number depends on
// besides the code: machine, parallelism, toolchain, revision and seed.
func printEnvironment(cfg config) {
	fmt.Printf("bench: cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s seed=%d seconds=%g\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), revision(), cfg.seed, cfg.seconds)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// revision is the git revision of the source: what run.sh found, or what
// `go run` stamped into the binary. The acceptance protocol's checkouts
// are not work trees and have neither.
func revision() string {
	if rev := os.Getenv("BENCH_REVISION"); rev != "" {
		return rev
	}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
