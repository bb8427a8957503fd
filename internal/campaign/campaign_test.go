package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestScalingColdWarm pins the memoization contract on the cheap
// all-analytic campaign: a cold run computes every cell, a warm re-run
// computes none.
func TestScalingColdWarm(t *testing.T) {
	st := openStore(t, t.TempDir())
	c := Scaling()

	cold, err := Run(c, st, RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if cold.ComputedTotal != c.Cells() || cold.HitsTotal != 0 {
		t.Fatalf("cold run: computed %d hits %d, want %d/0", cold.ComputedTotal, cold.HitsTotal, c.Cells())
	}
	if cold.StoreRecords != c.Cells() {
		t.Fatalf("store has %d records after cold run, want %d", cold.StoreRecords, c.Cells())
	}
	if cold.StoreDigest == "" || len(cold.StoreDigest) != 64 {
		t.Fatalf("cold run digest %q, want 64 hex chars", cold.StoreDigest)
	}

	warm, err := Run(c, st, RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if warm.ComputedTotal != 0 {
		t.Fatalf("warm run computed %d cells, want 0", warm.ComputedTotal)
	}
	if warm.HitsTotal != c.Cells() {
		t.Fatalf("warm run hits %d, want %d", warm.HitsTotal, c.Cells())
	}
	if warm.Interrupted {
		t.Fatal("warm run reported interrupted")
	}
	if warm.StoreDigest != cold.StoreDigest {
		t.Fatalf("digest changed across warm run: %s → %s", cold.StoreDigest, warm.StoreDigest)
	}
}

// TestInterruptResume is the kill-mid-campaign drill: a budgeted run
// stops with ErrInterrupted after exactly MaxCells computes, the next
// run finishes only the remainder, and the resulting store is identical
// (by digest) to one produced by an uninterrupted run.
func TestInterruptResume(t *testing.T) {
	c := Scaling()
	total := c.Cells()

	// Reference: one uninterrupted run.
	ref := openStore(t, t.TempDir())
	refSum, err := Run(c, ref, RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	st := openStore(t, t.TempDir())
	const budget = 7
	first, err := Run(c, st, RunOptions{Workers: 4, MaxCells: budget})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("budgeted run error = %v, want ErrInterrupted", err)
	}
	if !first.Interrupted {
		t.Fatal("budgeted run summary not marked interrupted")
	}
	if first.ComputedTotal != budget {
		t.Fatalf("budgeted run computed %d cells, want exactly %d", first.ComputedTotal, budget)
	}
	if st.Len() != budget {
		t.Fatalf("store holds %d records after interruption, want %d (work must persist)", st.Len(), budget)
	}

	resume, err := Run(c, st, RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if resume.ComputedTotal != total-budget {
		t.Fatalf("resume computed %d cells, want %d (zero recomputes of persisted work)",
			resume.ComputedTotal, total-budget)
	}
	if resume.HitsTotal != budget {
		t.Fatalf("resume hits %d, want %d", resume.HitsTotal, budget)
	}

	third, err := Run(c, st, RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("third run: %v", err)
	}
	if third.ComputedTotal != 0 {
		t.Fatalf("third run computed %d cells, want 0", third.ComputedTotal)
	}
	if third.StoreDigest != refSum.StoreDigest {
		t.Fatalf("interrupted+resumed store digest %s differs from uninterrupted run %s",
			third.StoreDigest, refSum.StoreDigest)
	}
}

// TestTornTailRecompute simulates a writer killed mid-append: the torn
// final line is skipped on reopen and the campaign recomputes exactly
// that one cell.
func TestTornTailRecompute(t *testing.T) {
	dir := t.TempDir()
	c := Scaling()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(c, st, RunOptions{Workers: 4}); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	log := filepath.Join(dir, "records.ndjson")
	b, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the last record (well past its trailing newline).
	if err := os.WriteFile(log, b[:len(b)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	if st2.Corrupt() != 1 {
		t.Fatalf("reopen skipped %d torn lines, want 1", st2.Corrupt())
	}
	sum, err := Run(c, st2, RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("recovery run: %v", err)
	}
	if sum.ComputedTotal != 1 {
		t.Fatalf("recovery run computed %d cells, want exactly the 1 torn cell", sum.ComputedTotal)
	}
	if sum.StoreRecords != c.Cells() {
		t.Fatalf("store holds %d records after recovery, want %d", sum.StoreRecords, c.Cells())
	}
}

// TestPaperCampaignColdWarmAndArtifacts runs the full paper campaign
// once cold (every engine tier: analytic grids, repetitions, monitored
// references, resilience sweep), then warm, and emits every artifact
// from the store — twice, byte-identically.
func TestPaperCampaignColdWarmAndArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper campaign in -short mode")
	}
	st := openStore(t, t.TempDir())
	c := Paper()

	cold, err := Run(c, st, RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	// Even a cold run scores one hit: the resilience sweep's fault-free
	// ScaLAPACK point re-reads the probe record that anchored the sweep —
	// the store deduplicating within a single run.
	if cold.ComputedTotal != c.Cells()-1 || cold.HitsTotal != 1 {
		t.Fatalf("cold run computed %d hits %d, want %d/1", cold.ComputedTotal, cold.HitsTotal, c.Cells()-1)
	}
	if len(cold.Stages) != len(c.Stages) {
		t.Fatalf("summary has %d stages, want %d", len(cold.Stages), len(c.Stages))
	}
	for _, s := range cold.Stages {
		if s.Computed+s.Hits != s.Cells {
			t.Errorf("cold stage %s: computed %d + hits %d != %d cells", s.Name, s.Computed, s.Hits, s.Cells)
		}
		if s.Hits != 0 && s.Name != "resilience" {
			t.Errorf("cold stage %s scored %d hits, want 0", s.Name, s.Hits)
		}
	}

	warm, err := Run(c, st, RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if warm.ComputedTotal != 0 || warm.HitsTotal != c.Cells() {
		t.Fatalf("warm run computed %d hits %d, want 0/%d", warm.ComputedTotal, warm.HitsTotal, c.Cells())
	}

	dir1, dir2 := t.TempDir(), t.TempDir()
	names1, err := EmitArtifacts(st, dir1)
	if err != nil {
		t.Fatalf("EmitArtifacts: %v", err)
	}
	names2, err := EmitArtifacts(st, dir2)
	if err != nil {
		t.Fatalf("EmitArtifacts (second): %v", err)
	}
	if len(names1) == 0 || len(names1) != len(names2) {
		t.Fatalf("artifact name lists differ: %v vs %v", names1, names2)
	}
	header := Provenance(st)
	for i, name := range names1 {
		if names2[i] != name {
			t.Fatalf("artifact order differs: %v vs %v", names1, names2)
		}
		b1, err := os.ReadFile(filepath.Join(dir1, name))
		if err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(filepath.Join(dir2, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("artifact %s differs across emissions", name)
		}
		if !bytes.HasPrefix(b1, []byte(header)) {
			t.Errorf("artifact %s missing provenance header %q", name, header)
		}
	}

	expPath := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
	if err := EmitExperiments(st, expPath); err != nil {
		t.Fatalf("EmitExperiments: %v", err)
	}
	exp, err := os.ReadFile(expPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(exp, []byte(st.Digest())) {
		t.Error("regenerated EXPERIMENTS.md does not name the store digest")
	}
	if bytes.Contains(exp, []byte("{{")) {
		t.Error("regenerated EXPERIMENTS.md has unexpanded template placeholders")
	}
	if !bytes.Contains(exp, []byte("| MTBF (s) |")) {
		t.Error("regenerated EXPERIMENTS.md is missing the resilience table")
	}
	if !bytes.Contains(exp, []byte("accel J")) {
		t.Error("regenerated EXPERIMENTS.md is missing the sparse CPU-vs-accelerator table")
	}
}

// TestEmissionIsStrict pins that artifact emission never computes: an
// incomplete store is an error naming the missing work.
func TestEmissionIsStrict(t *testing.T) {
	st := openStore(t, t.TempDir())
	if _, err := EmitArtifacts(st, t.TempDir()); err == nil {
		t.Fatal("EmitArtifacts succeeded on an empty store, want missing-cell error")
	} else if !strings.Contains(err.Error(), "missing cell") {
		t.Fatalf("EmitArtifacts error = %v, want it to name the missing cell", err)
	}
	if err := EmitExperiments(st, filepath.Join(t.TempDir(), "EXPERIMENTS.md")); err == nil {
		t.Fatal("EmitExperiments succeeded on an empty store, want error")
	}
	if _, err := SweepFromStore(st, paperGridParams()); err == nil {
		t.Fatal("SweepFromStore succeeded on an empty store, want error")
	}
}

// TestSummaryJSONShape pins the summary field names CI scripts assert on.
func TestSummaryJSONShape(t *testing.T) {
	b, err := json.Marshal(Summary{Stages: []StageSummary{{Name: "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"campaign"`, `"stages"`, `"cells_total"`, `"computed_total"`,
		`"hits_total"`, `"run_wall_s"`, `"store_records"`, `"store_digest"`,
		`"name"`, `"cells"`, `"computed"`, `"hits"`,
	} {
		if !bytes.Contains(b, []byte(key)) {
			t.Errorf("summary JSON missing %s: %s", key, b)
		}
	}
	if bytes.Contains(b, []byte(`"interrupted"`)) {
		t.Error("interrupted should be omitted when false")
	}
}

func TestLookup(t *testing.T) {
	for _, name := range []string{"paper", "scaling"} {
		c, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		if c.Name != name || c.Cells() == 0 {
			t.Fatalf("Lookup(%s) = %+v", name, c)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup(nope) succeeded")
	}
}

// analyticRecordsSHA256 is the SHA-256 of the bytewise-sorted lines of
// records.ndjson after the paper campaign's analytic stages (what
// bench/'s campaign-paper workload runs): 440 records. The store digest
// pins the keys; this pins every identity and result byte, so a codec
// change that moves one float digit fails here and not in a reader.
const analyticRecordsSHA256 = "dfb0b291b466771f92806594c7906b6e49be97c1222c89bdc473be26cb9a935b"

// TestAnalyticCampaignRecordBytesPinned holds the stored bytes of the 440
// analytic cells in place, at any worker count.
func TestAnalyticCampaignRecordBytesPinned(t *testing.T) {
	plan := Paper()
	var stages []Stage
	for _, s := range plan.Stages {
		if s.Name != "monitored-reference" && s.Name != "resilience" {
			stages = append(stages, s)
		}
	}
	plan.Stages = stages
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := Run(plan, st, RunOptions{Workers: workers})
		st.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sum.ComputedTotal != 440 || sum.StoreRecords != 440 {
			t.Fatalf("workers=%d: computed %d cells into %d records, want 440/440", workers, sum.ComputedTotal, sum.StoreRecords)
		}
		log, err := os.ReadFile(filepath.Join(dir, "records.ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(log, []byte("\n"))
		sort.Slice(lines, func(i, j int) bool { return bytes.Compare(lines[i], lines[j]) < 0 })
		if got := fmt.Sprintf("%x", sha256.Sum256(bytes.Join(lines, nil))); got != analyticRecordsSHA256 {
			t.Errorf("workers=%d: sorted record bytes hash to %s, pinned %s", workers, got, analyticRecordsSHA256)
		}
	}
}
