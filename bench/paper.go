package main

import (
	"fmt"
	"os"
	"runtime"

	"repro/internal/campaign"
	"repro/internal/store"
)

const (
	paperCells = 440
	paperWarm  = 16
)

var campaignPaper = &workload{
	name: "campaign-paper",
	why: "440 analytic cells cold into a fresh store, then 16 warm replays after a reopen: the model path and the " +
		"store-lookup path both move it, and it guards the dense/sparse pipeline merge",
	warmup:  3,
	chunk:   1,
	clients: 1,
	miniOps: 3,
	setup:   setupPaper,
}

// paperInst runs store.Open on a fresh directory → campaign.Run cold →
// close → reopen → 16 warm replays, over the paper campaign without its
// two engine stages: engine work is engine-144's job, and the resilience
// stage can deadlock (ROADMAP open item 1), which must not be able to
// hang the benchmark. The campaign's cells are the paper's, so the seed
// does not change them.
type paperInst struct {
	plan    campaign.Campaign
	outDir  string
	dir     string // the op's store, removed by check
	cold    campaign.Summary
	warm    [paperWarm]campaign.Summary
	records int
	first   string // the first op's store digest
}

func setupPaper(_ int64, outDir string) (instance, error) {
	plan := campaign.Paper()
	var stages []campaign.Stage
	for _, s := range plan.Stages {
		if s.Name != "monitored-reference" && s.Name != "resilience" {
			stages = append(stages, s)
		}
	}
	plan.Stages = stages
	if got := plan.Cells(); got != paperCells {
		return nil, fmt.Errorf("the analytic stages of the paper campaign declare %d cells, not %d", got, paperCells)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return &paperInst{plan: plan, outDir: outDir}, nil
}

func (in *paperInst) prepare(lo, hi int) error { return nil }

func (in *paperInst) run(i int, tr *tracer, root int) (err error) {
	defer func() {
		if err != nil { // check, which removes the store, only follows a run that worked
			os.RemoveAll(in.dir)
		}
	}()
	opt := campaign.RunOptions{Workers: runtime.NumCPU()}

	sp := tr.begin("campaign.cold", i, root)
	if in.dir, err = os.MkdirTemp(in.outDir, "store-"); err != nil {
		return err
	}
	st, err := store.Open(in.dir)
	if err != nil {
		return err
	}
	in.cold, err = campaign.Run(in.plan, st, opt)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	tr.finish(sp)
	if err != nil {
		return fmt.Errorf("cold run: %w", err)
	}

	sp = tr.begin("campaign.reopen", i, root)
	st, err = store.Open(in.dir)
	tr.finish(sp)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	in.records = st.Len()
	for k := range in.warm {
		sp = tr.begin("campaign.warm", i, root)
		in.warm[k], err = campaign.Run(in.plan, st, opt)
		tr.finish(sp)
		if err != nil {
			st.Close()
			return fmt.Errorf("warm replay %d: %w", k, err)
		}
	}
	return st.Close()
}

func (in *paperInst) check(i int) error {
	if err := os.RemoveAll(in.dir); err != nil {
		return err
	}
	if in.cold.ComputedTotal != paperCells {
		return fmt.Errorf("cold run computed %d cells, want %d", in.cold.ComputedTotal, paperCells)
	}
	if in.first == "" {
		in.first = in.cold.StoreDigest
	}
	if in.cold.StoreDigest != in.first {
		return fmt.Errorf("cold store digest %s differs from the first op's %s", in.cold.StoreDigest, in.first)
	}
	if in.records != paperCells {
		return fmt.Errorf("reopened store holds %d records, want %d", in.records, paperCells)
	}
	for k, w := range in.warm {
		if w.ComputedTotal != 0 || w.StoreDigest != in.cold.StoreDigest {
			return fmt.Errorf("warm replay %d computed %d cells with digest %s, want 0 and %s",
				k, w.ComputedTotal, w.StoreDigest, in.cold.StoreDigest)
		}
	}
	return nil
}

func (in *paperInst) fingerprint() fingerprint {
	fp := newFingerprint()
	fp.Exact["store.digest"] = in.first
	fp.setInt("store.records", paperCells)
	return fp
}

func (in *paperInst) close() error { return nil }

// layers reports the three spans that tile the op (cold + reopen +
// 16·warm) and the two ratios PR 8's headline was stated in.
func (in *paperInst) layers(tr *tracer, out map[string]float64) error {
	cold := median(tr.durationsMS("campaign.cold"))
	warm := median(tr.durationsMS("campaign.warm"))
	out["campaign.cold_ms"] = cold
	out["campaign.reopen_ms"] = median(tr.durationsMS("campaign.reopen"))
	out["campaign.warm_ms"] = warm
	out["campaign.cold_cells_per_s"] = paperCells / (cold / 1e3)
	out["campaign.warm_speedup"] = cold / warm
	return nil
}
