package campaign

import (
	"bytes"
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

// Artifact emission is strict: every number comes from the store, and a
// missing cell is an error, never a recompute. Run the campaign first;
// emit after. Each artifact starts with a provenance header naming the
// store digest and record count it was read from, so an artifact can
// always be traced back to the exact result set that produced it.

// SweepFromStore reconstructs the full evaluation grid under the given
// params from stored cells only. A missing cell fails with its
// coordinates — the signal to (re)run the campaign, not to compute here.
func SweepFromStore(st *store.Store, prm perfmodel.Params) (*core.Sweep, error) {
	s := &core.Sweep{Params: prm, Measurements: make(map[core.SweepKey]core.Measurement)}
	for _, k := range core.SweepKeys() {
		m, ok, err := core.LookupAnalyticCell(st, k.Experiment(), prm)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("campaign: store is missing cell %v (run the campaign first)", k)
		}
		s.Measurements[k] = m
	}
	return s, nil
}

// Provenance renders the header line pinned to the top of every emitted
// artifact.
func Provenance(st *store.Store) string {
	return fmt.Sprintf("# provenance: experiment store digest %s (%d records)", st.Digest(), st.Len())
}

// monitoredTable renders the exact-engine reference runs from the store.
func monitoredTable(st *store.Store) (*report.Table, error) {
	t := &report.Table{
		Title: "Monitored references: exact engine under the monitoring framework",
		Headers: []string{"alg", "n", "ranks", "placement", "phase",
			"duration s", "total J", "residual"},
	}
	for _, e := range monitoredReferences() {
		m, ok, err := core.Lookup(st, core.MonitoredCell(e))
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("campaign: store is missing monitored cell %v/%d/%d (run the campaign first)",
				e.Algorithm, e.N, e.Ranks)
		}
		t.Add(e.Algorithm.String(), e.N, e.Ranks, e.Placement.String(), e.Phase.String(),
			m.DurationS, m.TotalJ, m.Residual)
	}
	return t, nil
}

// strictTable guards table builders that fall back to computing on a
// store miss: emission must never compute.
func strictTable(name string, t *report.Table, computed int, err error) (*report.Table, error) {
	if err != nil {
		return nil, err
	}
	if computed > 0 {
		return nil, fmt.Errorf("campaign: emitting %s required computing %d cells — the store is incomplete, run the campaign first", name, computed)
	}
	return t, nil
}

// Artifacts builds every paper-campaign artifact from the store, in a
// fixed emission order.
func Artifacts(st *store.Store) ([]struct {
	Name  string
	Table *report.Table
}, error) {
	paper, err := SweepFromStore(st, paperGridParams())
	if err != nil {
		return nil, err
	}
	ablation, err := SweepFromStore(st, perfmodel.Params{})
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
		capped, err := SweepFromStore(st, perfmodel.Params{Overlap: true, PowerCapW: capW})
		if err != nil {
			return nil, err
		}
		out = append(out, artifact{fmt.Sprintf("powercap-%.0f", capW), capped.Figure6()})
	}
	reps, computed, err := core.RepetitionStudyStored(repetitionCells(), paperGridParams(),
		RepetitionReps, RepetitionVariability, st)
	if t, err := strictTable("repetitions", reps, computed, err); err != nil {
		return nil, err
	} else {
		out = append(out, artifact{"repetitions", t})
	}
	mon, err := monitoredTable(st)
	if err != nil {
		return nil, err
	}
	out = append(out, artifact{"monitored", mon})
	res, computed, err := core.ResilienceArtifactStored(0, ResilienceSeed, st)
	if t, err := strictTable("resilience", res, computed, err); err != nil {
		return nil, err
	} else {
		out = append(out, artifact{"resilience", t})
	}
	sp, err := sparseTable(st)
	if err != nil {
		return nil, err
	}
	out = append(out, artifact{"sparse", sp})
	return out, nil
}

// sparseTable renders the sparse CPU-vs-accelerator grid from the store,
// strictly: a cell the campaign has not computed yet is an error.
func sparseTable(st *store.Store) (*report.Table, error) {
	sw, computed, err := core.NewSparseSweepStored(sparseParams(), grid.New(1), st)
	if err != nil {
		return nil, err
	}
	t, err := sw.SparseFigure()
	return strictTable("sparse", t, computed, err)
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
	pts, computed, err := core.ResilienceSweepStored(0, ResilienceSeed, st)
	if err != nil {
		return nil, err
	}
	if computed > 0 {
		return nil, fmt.Errorf("campaign: regenerating EXPERIMENTS.md required computing %d resilience runs — run the campaign first", computed)
	}
	var resTable bytes.Buffer
	if err := core.WriteResilienceTable(&resTable, pts); err != nil {
		return nil, err
	}
	paper, err := SweepFromStore(st, paperGridParams())
	if err != nil {
		return nil, err
	}
	var fig5 bytes.Buffer
	if err := paper.Figure5().Markdown(&fig5); err != nil {
		return nil, err
	}
	sp, err := sparseTable(st)
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
