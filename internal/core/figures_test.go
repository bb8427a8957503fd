package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/grid"
	"repro/internal/perfmodel"
)

func newSweep(t *testing.T) *Sweep {
	t.Helper()
	s, err := SweepCells(SweepKeys(), perfmodel.Params{Overlap: true}).Collect(&Evaluator{Runner: grid.New(0)})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSweepCoversFullGrid(t *testing.T) {
	s := newSweep(t)
	want := 4 * 3 * 3 * 2
	if len(s.Measurements) != want {
		t.Fatalf("sweep has %d cells, want %d", len(s.Measurements), want)
	}
	if _, err := s.Get(perfmodel.IMe, 8640, 144, cluster.FullLoad); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(perfmodel.IMe, 1, 1, cluster.FullLoad); err == nil {
		t.Fatal("missing cell lookup did not error")
	}
}

func TestTable1Rendering(t *testing.T) {
	tab, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("Table 1 has %d rows, want 9", len(tab.Rows))
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"144", "576", "1296", "48", "27"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered Table 1 missing %q", want)
		}
	}
}

func TestFigureTablesComplete(t *testing.T) {
	s := newSweep(t)
	cases := map[string]struct {
		rows int
		tab  interface {
			Render(w *bytes.Buffer) error
		}
	}{}
	_ = cases
	f3 := s.Figure3()
	if len(f3.Rows) != 2*4*3 {
		t.Errorf("figure 3 has %d rows", len(f3.Rows))
	}
	f4 := s.Figure4()
	if len(f4.Rows) != 3*4 {
		t.Errorf("figure 4 has %d rows", len(f4.Rows))
	}
	f5 := s.Figure5()
	if len(f5.Rows) != 4*3 {
		t.Errorf("figure 5 has %d rows", len(f5.Rows))
	}
	f6 := s.Figure6()
	if len(f6.Rows) != 3*4 {
		t.Errorf("figure 6 has %d rows", len(f6.Rows))
	}
	f7 := s.Figure7()
	if len(f7.Rows) != 4*3 {
		t.Errorf("figure 7 has %d rows", len(f7.Rows))
	}
	// Figure 5 winner column must include both algorithms (the crossover).
	var buf bytes.Buffer
	if err := f5.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "IMe") || !strings.Contains(out, "ScaLAPACK") {
		t.Fatal("figure 5 lost its crossover")
	}
}

func TestSocketBreakdownTable(t *testing.T) {
	s := newSweep(t)
	tab, err := s.SocketBreakdown(17280, 144)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("socket table has %d rows, want 6", len(tab.Rows))
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "half-load-1-socket") {
		t.Fatal("placement names missing")
	}
	if _, err := s.SocketBreakdown(5, 7); err == nil {
		t.Fatal("invalid cell accepted")
	}
}

func TestDurationBreakdown(t *testing.T) {
	tab, err := DurationBreakdown(perfmodel.Params{Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("%d rows, want 12", len(tab.Rows))
	}
	// The crossover mechanism: at every cell ScaLAPACK's exposed-comm
	// share (col 7) must exceed IMe's (col 4) — pivoting cannot hide.
	for _, row := range tab.Rows {
		var imePct, gePct float64
		if _, err := fmt.Sscanf(row[4], "%g", &imePct); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Sscanf(row[7], "%g", &gePct); err != nil {
			t.Fatal(err)
		}
		if gePct <= imePct {
			t.Errorf("n=%s ranks=%s: ScaLAPACK comm share %.1f%% not above IMe %.1f%%",
				row[0], row[1], gePct, imePct)
		}
	}
}

func TestSlurmLeakStudy(t *testing.T) {
	tab, err := SlurmLeakStudy(perfmodel.ScaLAPACK, 17280, 144,
		[]float64{0, 0.25, 0.5}, perfmodel.Params{Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(tab.Rows))
	}
	// The pkg1/pkg0 ratio must rise monotonically with the leak fraction.
	var prev float64 = -1
	for _, row := range tab.Rows {
		var ratio float64
		if _, err := fmt.Sscanf(row[4], "%g", &ratio); err != nil {
			t.Fatal(err)
		}
		if ratio <= prev {
			t.Fatalf("leak %s: pkg1/pkg0 %g not above previous %g", row[0], ratio, prev)
		}
		prev = ratio
	}
	if _, err := SlurmLeakStudy(perfmodel.IMe, 100, 7, []float64{0}, perfmodel.Params{}); err == nil {
		t.Fatal("invalid rank count accepted")
	}
}

func TestMessageAccountingTable(t *testing.T) {
	tab, err := MessageAccounting([][2]int{{24, 4}, {30, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(tab.Rows))
	}
	// Counted and closed-form columns must agree exactly.
	for _, row := range tab.Rows {
		if row[2] != row[3] {
			t.Errorf("message count %s != closed form %s", row[2], row[3])
		}
		if row[4] != row[5] {
			t.Errorf("volume %s != closed form %s", row[4], row[5])
		}
	}
}
