package perfmodel_test

// An evaluation replays each distinct schedule once (Replays), and a cell
// whose replay came from the memo is the cell RunAnalytic computes, bit
// for bit.

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/rapl"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/store"
)

// denseStages is the campaign without the stages whose cells are no dense
// analytic cells: the engine references, the resilience sweep and the
// sparse grid.
func denseStages(c campaign.Campaign) campaign.Campaign {
	var stages []campaign.Stage
	for _, s := range c.Stages {
		switch s.Name {
		case "monitored-reference", "resilience", "sparse-grid":
		default:
			stages = append(stages, s)
		}
	}
	c.Stages = stages
	return c
}

// TestEvaluationReplaysEachScheduleOnce runs the dense analytic stages of
// both campaigns, each through the one evaluator of a campaign run on
// several workers, a fleet run and a paper-grid sweep request, and holds
// every stored cell to RunAnalytic on the cell's own experiment and
// params, which replays its schedule afresh. The replay counts pin the
// sharing. Paper-grid and overlap-ablation replay 24 schedules each:
// every placement is multi-node at these rank counts and none stretches
// an uncapped run. Power-cap-110 adds 48 (two cap stretches over the
// three placements); power-cap-130 adds 24, as half-load-2-sockets stays
// unstretched under it and replays paper-grid's schedules. The
// repetitions add none: they redraw only the variability noise of
// paper-grid cells. The fleet prices 1440 candidate shapes of 240 jobs,
// 72 distinct cells over 24 schedules; the sweep prices the 72 cells of
// the paper grid. A key that picked up an input the replay does not
// read, such as NoiseSeed or the cap itself, would raise them.
func TestEvaluationReplaysEachScheduleOnce(t *testing.T) {
	runCampaign := func(c campaign.Campaign) func(*testing.T, *store.Store) int {
		return func(t *testing.T, st *store.Store) int {
			sum, err := campaign.Run(c, st, campaign.RunOptions{Workers: 4})
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			return sum.ComputedTotal + sum.HitsTotal
		}
	}
	for _, tc := range []struct {
		name                    string
		run                     func(*testing.T, *store.Store) int // returns the evaluations made
		evals, records, replays int
	}{
		{"paper", runCampaign(denseStages(campaign.Paper())), 368, 368, 120},
		{"scaling", runCampaign(campaign.Scaling()), 24, 24, 24},
		{"fleet", func(t *testing.T, st *store.Store) int {
			o, err := sched.Simulate(sched.Config{Nodes: 48, Workers: 4, Store: st}, sched.Synthetic(1, 240))
			if err != nil {
				t.Fatal(err)
			}
			return o.StoreHits + o.StoreComputed
		}, 1440, 72, 24},
		{"sweep", func(t *testing.T, st *store.Store) int {
			h := server.New(server.Config{Store: st, SweepWorkers: 4}).Handler()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(`{"grid":"paper"}`)))
			var resp server.SweepResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); w.Code != http.StatusOK || err != nil {
				t.Fatalf("sweep: status %d, %v: %s", w.Code, err, w.Body)
			}
			return resp.Count
		}, 72, 72, 24},
	} {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		before := perfmodel.Replayed()
		evals := tc.run(t, st)
		replays := perfmodel.Replayed() - before
		if evals != tc.evals || st.Len() != tc.records {
			t.Fatalf("%s: %d evaluations into %d records, want %d into %d", tc.name, evals, st.Len(), tc.evals, tc.records)
		}
		if replays != int64(tc.replays) {
			t.Errorf("%s: %d evaluations ran %d replays, want %d", tc.name, tc.evals, replays, tc.replays)
		}
		for _, key := range st.Keys() {
			rec, _, err := st.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			got, want := storedAndFresh(t, rec)
			if !sameBits(got, want) {
				t.Errorf("%s: cell %s stored %+v, RunAnalytic gives %+v", tc.name, rec.Identity, got, want)
			}
		}
	}
}

// storedAndFresh decodes a stored analytic cell and recomputes it with
// RunAnalytic from the experiment and params its identity names.
func storedAndFresh(t *testing.T, rec store.Record) (stored, fresh core.Measurement) {
	t.Helper()
	var id core.CellIdentity
	if err := json.Unmarshal(rec.Identity, &id); err != nil {
		t.Fatal(err)
	}
	var res struct {
		DurationS float64            `json:"duration_s"`
		EnergyJ   map[string]float64 `json:"energy_j"`
		TotalJ    float64            `json:"total_j"`
	}
	if err := json.Unmarshal(rec.Result, &res); err != nil {
		t.Fatal(err)
	}
	if id.Engine != "analytic" || id.Model == nil {
		t.Fatalf("record %s is no analytic cell", rec.Identity)
	}
	alg, err := perfmodel.ParseAlgorithm(id.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := cluster.ParsePlacement(id.Placement)
	if err != nil {
		t.Fatal(err)
	}
	e := core.Experiment{Algorithm: alg, N: id.N, Ranks: id.Ranks, Placement: pl}
	if fresh, err = core.RunAnalytic(e, id.Model.Params.Params); err != nil {
		t.Fatal(err)
	}
	stored = core.Measurement{DurationS: res.DurationS, TotalJ: res.TotalJ}
	for _, d := range rapl.Domains() {
		stored.EnergyJ[d] = res.EnergyJ[d.String()]
		delete(res.EnergyJ, d.String())
	}
	if len(res.EnergyJ) != 0 {
		t.Fatalf("record %s stores energy of domains %v", rec.Identity, res.EnergyJ)
	}
	return stored, fresh
}

// sameBits compares the duration, every energy domain and the total by
// their float64 bits.
func sameBits(a, b core.Measurement) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.DurationS, b.DurationS) || !same(a.TotalJ, b.TotalJ) {
		return false
	}
	for d := range a.EnergyJ {
		if !same(a.EnergyJ[d], b.EnergyJ[d]) {
			return false
		}
	}
	return true
}

// measurement is the part of a model result sameBits compares.
func measurement(r perfmodel.Result) core.Measurement {
	return core.Measurement{DurationS: r.DurationS, TotalJ: r.TotalJ, EnergyJ: r.EnergyJ}
}

// TestReplaysShareOneReplayAcrossCallers starts callers of one memo on
// one schedule at once, each under its own noise seed: the schedule is
// replayed once, and every caller gets the Result an unmemoized Run gives
// it.
func TestReplaysShareOneReplayAcrossCallers(t *testing.T) {
	cfg, err := cluster.NewConfig(576, cluster.HalfLoadTwoSockets, cluster.MarconiA3())
	if err != nil {
		t.Fatal(err)
	}
	params := func(i int) perfmodel.Params {
		return perfmodel.Params{Overlap: true, NodeVariability: 0.05, NoiseSeed: int64(i + 1)}
	}
	var memo perfmodel.Replays
	got := make([]perfmodel.Result, 8)
	errs := make([]error, len(got))
	before := perfmodel.Replayed()
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = memo.Run(perfmodel.ScaLAPACK, 17280, cfg, params(i))
		}()
	}
	wg.Wait()
	if n := perfmodel.Replayed() - before; n != 1 {
		t.Errorf("%d callers on one schedule ran %d replays, want 1", len(got), n)
	}
	for i, g := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := perfmodel.Run(perfmodel.ScaLAPACK, 17280, cfg, params(i))
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(measurement(g), measurement(want)) {
			t.Errorf("caller %d: memo gives %+v, Run gives %+v", i, g, want)
		}
	}
}
