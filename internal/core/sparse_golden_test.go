package core_test

// Golden pinning of the sparse advisor's device verdicts across the
// sparse grid, mirroring advisor_golden_test.go: every matrix recipe ×
// algorithm under all three objectives at the serving default. The grid
// must exhibit both verdicts — at least one cell each for the
// accelerated and the CPU-only placement — or the device axis carries no
// information and the advisor extension is vacuous.
//
// Regenerate with:
//
//	go test ./internal/core -run TestSparseAdvisorGolden -update-goldens
//
// against a known-good model, never together with a model change.

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sparse"
)

type sparseAdvisorGoldenRow struct {
	Algorithm string  `json:"algorithm"`
	Matrix    string  `json:"matrix"`
	N         int     `json:"n"`
	Band      int     `json:"band,omitempty"`
	Density   float64 `json:"density,omitempty"`
	Cond      float64 `json:"cond"`
	Objective string  `json:"objective"`
	Best      string  `json:"best"`
	Margin    float64 `json:"margin"`
}

const sparseAdvisorGoldenPath = "testdata/sparse_advisor_golden.json"

func computeSparseAdvisorGolden(t *testing.T) []sparseAdvisorGoldenRow {
	t.Helper()
	prm := perfmodel.Params{}
	var rows []sparseAdvisorGoldenRow
	for _, spec := range core.SparseSweepSpecs() {
		for _, a := range sparse.Algorithms() {
			for _, obj := range core.Objectives() {
				rec, _, err := core.RecommendSparseStored(a, spec, core.SparseSweepRanks, cluster.FullLoad, obj, prm, nil)
				if err != nil {
					t.Fatalf("RecommendSparse(%v, %s, %v): %v", a, spec.Label(), obj, err)
				}
				rows = append(rows, sparseAdvisorGoldenRow{
					Algorithm: a.String(), Matrix: spec.Kind.String(), N: spec.N,
					Band: spec.Band, Density: spec.Density, Cond: spec.Cond,
					Objective: obj.String(), Best: rec.Best.String(), Margin: rec.Margin,
				})
			}
		}
	}
	return rows
}

func TestSparseAdvisorGolden(t *testing.T) {
	got := computeSparseAdvisorGolden(t)
	seen := map[string]bool{}
	for _, r := range got {
		seen[r.Best] = true
	}
	if !seen[cluster.DeviceCPU.String()] || !seen[cluster.DeviceAccel.String()] {
		t.Fatalf("sparse grid verdicts are one-sided (%v): the device axis carries no information", seen)
	}
	if *updateGoldens {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sparseAdvisorGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(got), sparseAdvisorGoldenPath)
		return
	}
	b, err := os.ReadFile(sparseAdvisorGoldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update-goldens): %v", err)
	}
	var want []sparseAdvisorGoldenRow
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("grid has %d verdicts, golden has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Algorithm != w.Algorithm || g.Matrix != w.Matrix || g.N != w.N ||
			g.Cond != w.Cond || g.Objective != w.Objective {
			t.Fatalf("row %d is %+v, golden is %+v: grid enumeration changed", i, g, w)
		}
		if g.Best != w.Best {
			t.Errorf("%s %s n=%d cond=%g %s: recommends %s, golden %s (margin %.4f vs %.4f)",
				g.Algorithm, g.Matrix, g.N, g.Cond, g.Objective, g.Best, w.Best, g.Margin, w.Margin)
			continue
		}
		if diff := math.Abs(g.Margin - w.Margin); diff > marginTol*math.Max(math.Abs(w.Margin), 1) {
			t.Errorf("%s %s n=%d cond=%g %s: margin %.17g, golden %.17g",
				g.Algorithm, g.Matrix, g.N, g.Cond, g.Objective, g.Margin, w.Margin)
		}
	}
}
