package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// TestList pins the registry listing: every declared campaign with its
// stage breakdown, no store required.
func TestList(t *testing.T) {
	var buf bytes.Buffer
	if err := mainErr(&buf, "", "", 1, 0, "", "", "", true); err != nil {
		t.Fatalf("-list: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"paper", "scaling", "paper-grid", "resilience"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

// failWriter fails every write, as stdout on a full device does.
type failWriter struct{}

var errWrite = errors.New("no space left on device")

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

// TestListWriteFailureIsAnError pins that a listing the writer lost is
// an error, so the command exits non-zero instead of 0.
func TestListWriteFailureIsAnError(t *testing.T) {
	if err := mainErr(failWriter{}, "", "", 1, 0, "", "", "", true); !errors.Is(err, errWrite) {
		t.Fatalf("-list into a failing writer: err = %v, want %v", err, errWrite)
	}
}

// TestNothingToDo pins the usage error when no action flag is given.
func TestNothingToDo(t *testing.T) {
	err := mainErr(io.Discard, t.TempDir(), "", 1, 0, "", "", "", false)
	if err == nil || !strings.Contains(err.Error(), "nothing to do") {
		t.Fatalf("no action: err = %v, want 'nothing to do'", err)
	}
}

// TestUnknownCampaign pins the lookup error for a bad -run value.
func TestUnknownCampaign(t *testing.T) {
	err := mainErr(io.Discard, t.TempDir(), "nope", 1, 0, "", "", "", false)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown campaign: err = %v, want it to name 'nope'", err)
	}
}

// TestRunScalingWritesSummary runs the small scaling campaign end to end
// through the CLI entry point: summary JSON on disk, warm re-run
// computes nothing, budget interruption surfaces ErrInterrupted.
func TestRunScalingWritesSummary(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	summary := filepath.Join(dir, "summary.json")

	var buf bytes.Buffer
	if err := mainErr(&buf, storeDir, "scaling", 2, 0, summary, "", "", false); err != nil {
		t.Fatalf("cold scaling run: %v", err)
	}
	var sum campaign.Summary
	b, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &sum); err != nil {
		t.Fatalf("summary JSON: %v", err)
	}
	if sum.ComputedTotal == 0 || sum.ComputedTotal != sum.CellsTotal {
		t.Fatalf("cold summary computed %d of %d cells, want all", sum.ComputedTotal, sum.CellsTotal)
	}

	buf.Reset()
	if err := mainErr(&buf, storeDir, "scaling", 2, 0, summary, "", "", false); err != nil {
		t.Fatalf("warm scaling run: %v", err)
	}
	b, err = os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &sum); err != nil {
		t.Fatalf("warm summary JSON: %v", err)
	}
	if sum.ComputedTotal != 0 || sum.HitsTotal != sum.CellsTotal {
		t.Fatalf("warm summary computed %d, hits %d of %d — want 0 computed, all hits",
			sum.ComputedTotal, sum.HitsTotal, sum.CellsTotal)
	}

	// Budget interruption on a fresh store: the error is ErrInterrupted
	// (the exit-3 path) and the summary still lands on disk.
	budgetStore := filepath.Join(dir, "budget")
	err = mainErr(io.Discard, budgetStore, "scaling", 1, 5, summary, "", "", false)
	if !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("budgeted run: err = %v, want ErrInterrupted", err)
	}
	b, err = os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &sum); err != nil {
		t.Fatalf("interrupted summary JSON: %v", err)
	}
	if !sum.Interrupted || sum.ComputedTotal != 5 {
		t.Fatalf("interrupted summary: interrupted=%v computed=%d, want true/5",
			sum.Interrupted, sum.ComputedTotal)
	}
}
