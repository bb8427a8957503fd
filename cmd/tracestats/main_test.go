package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mpi"
)

// failWriter fails every write, as stdout on a full device does.
type failWriter struct{}

var errWrite = errors.New("no space left on device")

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

// smallTrace records a traced four-rank ring exchange and writes it to a
// file, returning its path.
func smallTrace(t *testing.T) string {
	t.Helper()
	w, err := mpi.NewWorld(4, mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.EnableTracing()
	if err := w.Run(func(p *mpi.Proc) error {
		c := p.World()
		me, n := p.Rank(), p.Size()
		p.Compute(1e-3*float64(me+1), 0)
		if err := p.Send(c, (me+1)%n, 0, []float64{float64(me)}); err != nil {
			return err
		}
		got, err := p.Recv(c, (me+n-1)%n, 0)
		if err != nil {
			return err
		}
		p.Recycle(got)
		return p.Barrier(c)
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChromeTrace(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

var modes = []struct {
	name           string
	csv, parseOnly bool
	want           string // a line the good-path output must hold
}{
	{"report", false, false, "Per-rank activity"},
	{"csv", true, false, "rank,compute_s,comm_s,wait_s,idle_s"},
	{"parse-only", false, true, "valid trace"},
}

// TestOutputModes runs every output mode on a small trace.
func TestOutputModes(t *testing.T) {
	path := smallTrace(t)
	for _, m := range modes {
		var out strings.Builder
		if err := run(&out, path, m.csv, m.parseOnly); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if !strings.Contains(out.String(), m.want) {
			t.Errorf("%s: output lacks %q:\n%s", m.name, m.want, out.String())
		}
	}
}

// TestWriteFailureIsAnError pins that every output mode reports a writer
// that lost its output, so the command exits non-zero instead of 0.
func TestWriteFailureIsAnError(t *testing.T) {
	path := smallTrace(t)
	for _, m := range modes {
		if err := run(failWriter{}, path, m.csv, m.parseOnly); !errors.Is(err, errWrite) {
			t.Errorf("%s into a failing writer: err = %v, want %v", m.name, err, errWrite)
		}
	}
}
