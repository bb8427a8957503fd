package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
)

// jouleTolerance is how far simulated joules may differ between two runs
// of the same inputs. Everything else simulated compares exactly; joules
// do not, because at GOMAXPROCS>1 goroutine interleaving moves a RAPL
// read across a 2⁻¹⁴ J counter quantum (ROADMAP open item 1). The suite
// neither hides that bug nor trips on it.
const jouleTolerance = 0.01

// fingerprint is the simulated statistics of a workload's first ops:
// what a change that only speeds up the host must leave as it was.
type fingerprint struct {
	// Exact values — virtual durations, message and byte counts,
	// iteration counts, digests — compare as strings; floats are
	// formatted so that they round-trip bit for bit.
	Exact map[string]string `json:"exact"`
	// Joules compare within jouleTolerance.
	Joules map[string]float64 `json:"joules,omitempty"`
}

func newFingerprint() fingerprint {
	return fingerprint{Exact: map[string]string{}, Joules: map[string]float64{}}
}

func (f fingerprint) setFloat(key string, v float64) {
	f.Exact[key] = strconv.FormatFloat(v, 'g', -1, 64)
}

func (f fingerprint) setInt(key string, v int64) { f.Exact[key] = strconv.FormatInt(v, 10) }

// diff lists how got departs from want; empty means they match.
func (want fingerprint) diff(got fingerprint) []string {
	var out []string
	for _, k := range unionKeys(want.Exact, got.Exact) {
		w, wok := want.Exact[k]
		g, gok := got.Exact[k]
		if !wok || !gok || w != g {
			out = append(out, fmt.Sprintf("%s: want %q, got %q", k, w, g))
		}
	}
	for _, k := range unionKeys(want.Joules, got.Joules) {
		w, wok := want.Joules[k]
		g, gok := got.Joules[k]
		if !wok || !gok || math.Abs(g-w) > jouleTolerance*math.Abs(w) {
			out = append(out, fmt.Sprintf("%s: want %g J ±%g%%, got %g J", k, w, 100*jouleTolerance, g))
		}
	}
	return out
}

func unionKeys[V any](a, b map[string]V) []string {
	seen := make(map[string]bool, len(a)+len(b))
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (f fingerprint) String() string {
	b, err := json.Marshal(f)
	if err != nil {
		return err.Error()
	}
	return string(b)
}

// referenceSeed is the seed whose fingerprints are checked in: every
// run, whatever its own seed, also executes each workload's first chunk
// at this seed and compares it with the reference built into the binary.
const referenceSeed = 1

// referenceFile holds the checked-in fingerprints at referenceSeed, keyed
// by workload; -write-fingerprints rewrites it.
const referenceFile = "bench/fingerprints.json"

//go:embed fingerprints.json
var referenceJSON []byte

func loadReferences() (map[string]fingerprint, error) {
	refs := make(map[string]fingerprint)
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("%s: %w", referenceFile, err)
	}
	return refs, nil
}

func writeReferences(refs map[string]fingerprint) error {
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referenceFile, append(data, '\n'), 0o644)
}
