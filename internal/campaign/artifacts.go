package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/report"
	"repro/internal/store"
)

// Artifact emission reads the store and never writes it: every artifact
// collects one of the campaign's own cell sets through an evaluator whose
// admit refuses every compute, so a cell the campaign has not stored is an
// error naming the cell. Run the campaign first; emit after. Each artifact
// starts with a provenance header naming the store digest and record count
// it was read from, so an artifact can always be traced back to the exact
// result set that produced it.

// errMissing is emission's answer to every compute.
var errMissing = errors.New("campaign: missing cell, run the campaign first")

// fromStore is the evaluator emission collects through.
func fromStore(st *store.Store) *core.Evaluator {
	return &core.Evaluator{Store: st, Runner: grid.New(1), Admit: func() error { return errMissing }}
}

// Provenance renders the header line pinned to the top of every emitted
// artifact.
func Provenance(st *store.Store) string {
	return fmt.Sprintf("# provenance: experiment store digest %s (%d records)", st.Digest(), st.Len())
}

// Artifacts builds every paper-campaign artifact from the store, in a
// fixed emission order.
func Artifacts(st *store.Store) ([]struct {
	Name  string
	Table *report.Table
}, error) {
	ev := fromStore(st)
	paper, err := paperGrid(paperGridParams()).Collect(ev)
	if err != nil {
		return nil, err
	}
	ablation, err := paperGrid(perfmodel.Params{}).Collect(ev)
	if err != nil {
		return nil, err
	}
	sockets, err := paper.SocketBreakdown(17280, 144)
	if err != nil {
		return nil, err
	}
	type artifact = struct {
		Name  string
		Table *report.Table
	}
	out := []artifact{
		{"figure3", paper.Figure3()},
		{"figure4", paper.Figure4()},
		{"figure5", paper.Figure5()},
		{"figure6", paper.Figure6()},
		{"figure7", paper.Figure7()},
		{"sockets", sockets},
		{"ablation-figure5", ablation.Figure5()},
	}
	for _, capW := range PowerCaps() {
		capped, err := paperGrid(perfmodel.Params{Overlap: true, PowerCapW: capW}).Collect(ev)
		if err != nil {
			return nil, err
		}
		out = append(out, artifact{fmt.Sprintf("powercap-%.0f", capW), capped.Figure6()})
	}
	reps, err := core.RepetitionStudy(paperGridParams()).Collect(ev)
	if err != nil {
		return nil, err
	}
	out = append(out, artifact{"repetitions", reps})
	mon, err := core.MonitoredReferences().Collect(ev)
	if err != nil {
		return nil, err
	}
	out = append(out, artifact{"monitored", mon})
	pts, err := core.ResilienceSweep(0, ResilienceSeed).Collect(ev)
	if err != nil {
		return nil, err
	}
	out = append(out, artifact{"resilience", core.ResilienceTable(pts)})
	sp, err := sparseTable(ev)
	if err != nil {
		return nil, err
	}
	out = append(out, artifact{"sparse", sp})
	return out, nil
}

// sparseTable renders the sparse CPU-vs-accelerator grid.
func sparseTable(ev *core.Evaluator) (*report.Table, error) {
	sw, err := core.SparseSweepCells(sparseParams()).Collect(ev)
	if err != nil {
		return nil, err
	}
	return sw.SparseFigure()
}

// EmitArtifacts writes every artifact as a provenance-headed text file
// under dir and returns the file names in emission order.
func EmitArtifacts(st *store.Store, dir string) ([]string, error) {
	artifacts, err := Artifacts(st)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	header := Provenance(st)
	var names []string
	for _, a := range artifacts {
		name := a.Name + ".txt"
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if err := writeArtifact(f, header, a.Table); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}

func writeArtifact(w io.Writer, header string, t *report.Table) error {
	if _, err := fmt.Fprintf(w, "%s\n\n", header); err != nil {
		return err
	}
	return t.Render(w)
}

// experimentsData fills the EXPERIMENTS.md template.
type experimentsData struct {
	Provenance      string
	ResilienceTable string
	Figure5Markdown string
	SparseTable     string
}

// renderExperiments produces the regenerated EXPERIMENTS.md bytes from
// the store (strictly — an incomplete store is an error).
func renderExperiments(st *store.Store) ([]byte, error) {
	ev := fromStore(st)
	pts, err := core.ResilienceSweep(0, ResilienceSeed).Collect(ev)
	if err != nil {
		return nil, err
	}
	var resTable bytes.Buffer
	if err := core.WriteResilienceTable(&resTable, pts); err != nil {
		return nil, err
	}
	paper, err := paperGrid(paperGridParams()).Collect(ev)
	if err != nil {
		return nil, err
	}
	var fig5 bytes.Buffer
	if err := paper.Figure5().Markdown(&fig5); err != nil {
		return nil, err
	}
	sp, err := sparseTable(ev)
	if err != nil {
		return nil, err
	}
	var sparseMd bytes.Buffer
	if err := sp.Markdown(&sparseMd); err != nil {
		return nil, err
	}
	data := experimentsData{
		Provenance:      fmt.Sprintf("experiment store digest `%s` (%d records)", st.Digest(), st.Len()),
		ResilienceTable: trimTrailingNewline(resTable.String()),
		Figure5Markdown: trimTrailingNewline(fig5.String()),
		SparseTable:     trimTrailingNewline(sparseMd.String()),
	}
	var out bytes.Buffer
	if err := experimentsTmpl.Execute(&out, data); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

func trimTrailingNewline(s string) string {
	for len(s) > 0 && s[len(s)-1] == '\n' {
		s = s[:len(s)-1]
	}
	return s
}

// EmitExperiments regenerates EXPERIMENTS.md from the store at path.
func EmitExperiments(st *store.Store, path string) error {
	b, err := renderExperiments(st)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
