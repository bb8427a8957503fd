package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current solvers")

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	runErr := fn()
	os.Stdout = saved
	w.Close()
	out := <-done
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(out)
}

// TestGolden pins the full stdout and the -out solution bytes of three
// runs: both solvers on an uneven block distribution (n=257 over 5
// ranks), ScaLAPACK alone with a small block size, and a MatrixMarket
// input that needs pivoting. Virtual time, residual and every solution
// bit are deterministic, so a change to either distributed solver that
// moves one of them fails here.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	for _, tc := range []struct {
		name         string
		n, ranks, nb int
		alg          string
	}{
		{"both", 257, 5, 32, "both"},
		{"scalapack-nb8", 64, 4, 8, "scalapack"},
	} {
		out := filepath.Join(dir, tc.name+".txt")
		stdout := captureStdout(t, func() error {
			return run("", "", tc.n, 1, tc.ranks, tc.alg, tc.nb, out)
		})
		sol, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== -n %d -ranks %d -alg %s -nb %d -out OUT\n%s-- OUT\n%s",
			tc.n, tc.ranks, tc.alg, tc.nb, strings.ReplaceAll(stdout, out, "OUT"), sol)
	}
	const mtx = "testdata/pivot8.mtx"
	stdout := captureStdout(t, func() error { return runMatrixMarket(mtx, 4, 2) })
	fmt.Fprintf(&b, "== -mtx %s -ranks 4 -nb 2\n%s", mtx, stdout)

	const path = "testdata/golden.txt"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if got[i] != wantLines[i] {
			t.Fatalf("line %d:\n got  %s\n want %s", i+1, got[i], wantLines[i])
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("%d golden lines, computed %d", len(wantLines), len(got))
	}
}
