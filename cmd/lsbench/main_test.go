package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestStoreAndParallelismPreserveOutput is the golden diff: `-figure all`
// output is byte-identical across every combination of store (absent,
// cold, warm) and worker count. The store may only remove recomputation,
// never change a byte; parallel builds may only change wall time.
func TestStoreAndParallelismPreserveOutput(t *testing.T) {
	render := func(workers int, st *store.Store) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := run(&buf, "all", "table", true, 0, 0, "", workers,
			faultsConfig{enabled: true, seed: 5}, st); err != nil {
			t.Fatalf("run(all, j=%d, store=%v): %v", workers, st != nil, err)
		}
		return buf.Bytes()
	}

	baseline := render(1, nil) // serial, storeless: the reference bytes

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	cases := []struct {
		name    string
		workers int
		st      *store.Store
	}{
		{"parallel storeless", 8, nil},
		{"cold store serial", 1, st},
		{"warm store serial", 1, st},
		{"warm store parallel", 8, st},
	}
	for _, tc := range cases {
		if got := render(tc.workers, tc.st); !bytes.Equal(got, baseline) {
			t.Errorf("%s: output differs from serial storeless baseline", tc.name)
		}
	}
	if st.Len() == 0 {
		t.Fatal("store is empty after -figure all runs; cells were not persisted")
	}

	// A fresh handle over the same directory reproduces the bytes with
	// zero appends — everything served from disk.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	stored := st2.Len()
	if got := render(8, st2); !bytes.Equal(got, baseline) {
		t.Error("reopened store: output differs from baseline")
	}
	if st2.Len() != stored {
		t.Errorf("reopened store grew from %d to %d records, want 0 appends (everything was stored)", stored, st2.Len())
	}
}

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestCellSetOutputPinned pins the stdout of `-figure repetitions` and
// `-figure resilience -faults` byte for byte: the two artifacts whose
// cells a campaign stage also runs.
func TestCellSetOutputPinned(t *testing.T) {
	for _, tc := range []struct {
		figure string
		faults faultsConfig
	}{
		{"repetitions", faultsConfig{}},
		{"resilience", faultsConfig{enabled: true, seed: 5}},
	} {
		var buf bytes.Buffer
		if err := run(&buf, tc.figure, "table", true, 0, 0, "", 1, tc.faults, nil); err != nil {
			t.Fatalf("run(%s): %v", tc.figure, err)
		}
		path := filepath.Join("testdata", tc.figure+".golden")
		if *update {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("-figure %s output differs from %s:\n got:\n%s\nwant:\n%s", tc.figure, path, buf.Bytes(), want)
		}
	}
}

// TestSparseFigureDeterministic pins the sparse artifact alone: bytes
// identical across worker counts and store states (the injector-off
// sparse golden contract).
func TestSparseFigureDeterministic(t *testing.T) {
	render := func(workers int, st *store.Store) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := run(&buf, "sparse", "table", true, 0, 0, "", workers, faultsConfig{}, st); err != nil {
			t.Fatalf("run(sparse, j=%d): %v", workers, err)
		}
		return buf.Bytes()
	}
	baseline := render(1, nil)
	if !strings.Contains(string(baseline), "accel") || !strings.Contains(string(baseline), "cpu") {
		t.Fatal("sparse figure shows only one device verdict")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, tc := range []struct {
		name    string
		workers int
		st      *store.Store
	}{
		{"parallel storeless", 8, nil},
		{"cold store parallel", 8, st},
		{"warm store serial", 1, st},
	} {
		if got := render(tc.workers, tc.st); !bytes.Equal(got, baseline) {
			t.Errorf("%s: sparse figure differs from serial storeless baseline", tc.name)
		}
	}
}

// TestErrorSurfaces pins the CLI's error contract: an unknown artifact
// name enumerates the valid set, and sparse rejects -cap loudly.
func TestErrorSurfaces(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, "figure8", "table", true, 0, 0, "", 1, faultsConfig{}, nil)
	if err == nil {
		t.Fatal("unknown artifact accepted")
	}
	for _, name := range []string{"table1", "sparse", "repetitions", "all"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-artifact error %q does not list %q", err, name)
		}
	}
	if err := run(&buf, "sparse", "table", true, 110, 0, "", 1, faultsConfig{}, nil); err == nil {
		t.Fatal("sparse artifact accepted -cap")
	}
	if err := run(&buf, "resilience", "table", true, 0, 0, "", 1, faultsConfig{}, nil); err == nil {
		t.Fatal("resilience artifact built without -faults")
	}
}

// TestBlockSizeReachesEveryArtifact pins that -nb prices ScaLAPACK in
// every artifact that models it: a non-default block size must move the
// bytes.
func TestBlockSizeReachesEveryArtifact(t *testing.T) {
	for _, figure := range []string{"5", "slurm", "repetitions", "breakdown"} {
		var def, nb16 bytes.Buffer
		if err := run(&def, figure, "table", true, 0, 0, "", 1, faultsConfig{}, nil); err != nil {
			t.Fatalf("run(%s): %v", figure, err)
		}
		if err := run(&nb16, figure, "table", true, 0, 16, "", 1, faultsConfig{}, nil); err != nil {
			t.Fatalf("run(%s, -nb 16): %v", figure, err)
		}
		if bytes.Equal(def.Bytes(), nb16.Bytes()) {
			t.Errorf("-figure %s -nb 16 prints the default block size's output", figure)
		}
	}
}
