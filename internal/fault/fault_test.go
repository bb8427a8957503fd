package fault

import (
	"math"
	"reflect"
	"testing"
)

func TestMTBFScheduleDeterministic(t *testing.T) {
	a := MTBFSchedule(7, 0.05, 1.0, 24, 8, 0)
	b := MTBFSchedule(7, 0.05, 1.0, 24, 8, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%+v\n%+v", a, b)
	}
	if len(a.Events) == 0 {
		t.Fatalf("mtbf far below horizon drew no crashes")
	}
	last := 0.0
	for _, ev := range a.Events {
		if ev.Time <= last {
			t.Fatalf("events not strictly increasing in time: %+v", a.Events)
		}
		last = ev.Time
		if ev.Time > 1.0 {
			t.Fatalf("event past horizon: %+v", ev)
		}
		for _, r := range ev.Ranks {
			if r == 0 {
				t.Fatalf("protected rank 0 crashed: %+v", ev)
			}
			if r < 0 || r >= 24 {
				t.Fatalf("victim out of range: %+v", ev)
			}
		}
	}
	c := MTBFSchedule(8, 0.05, 1.0, 24, 8, 0)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatalf("different seeds produced identical schedules")
	}
}

func TestMTBFScheduleBounds(t *testing.T) {
	s := MTBFSchedule(3, 0.001, 100, 16, 5, 0)
	if len(s.Events) != 5 {
		t.Fatalf("MaxCrashes not honoured: got %d events", len(s.Events))
	}
	if got := MTBFSchedule(3, 0, 1, 16, 5); len(got.Events) != 0 {
		t.Fatalf("zero MTBF drew events: %+v", got.Events)
	}
	// All ranks protected: nothing to crash.
	if got := MTBFSchedule(3, 0.01, 1, 2, 5, 0, 1); len(got.Events) != 0 {
		t.Fatalf("fully protected world drew events: %+v", got.Events)
	}
}

func TestInjectorDeterministicDecisions(t *testing.T) {
	cfg := Config{
		Seed:            42,
		MTBF:            0.1,
		Horizon:         2,
		Protected:       []int{0},
		DelayProb:       0.3,
		DelayMax:        1e-4,
		DropProb:        0.2,
		StragglerFrac:   0.25,
		StragglerFactor: 1.5,
	}
	a, err := New(cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatalf("same config produced different crash events")
	}
	var delays, drops, stragglers int
	for src := 0; src < 32; src++ {
		if a.Dilation(src) != b.Dilation(src) {
			t.Fatalf("dilation of rank %d differs across injectors", src)
		}
		if a.Dilation(src) > 1 {
			stragglers++
		}
		for seq := 0; seq < 64; seq++ {
			dst := (src + 1 + seq) % 32
			if d1, d2 := a.Delay(src, dst, seq), b.Delay(src, dst, seq); d1 != d2 {
				t.Fatalf("delay(%d,%d,%d) nondeterministic: %g vs %g", src, dst, seq, d1, d2)
			} else if d1 > 0 {
				delays++
				if d1 > cfg.DelayMax {
					t.Fatalf("delay %g exceeds max %g", d1, cfg.DelayMax)
				}
			}
			if k1, k2 := a.Drops(src, dst, seq), b.Drops(src, dst, seq); k1 != k2 {
				t.Fatalf("drops(%d,%d,%d) nondeterministic: %d vs %d", src, dst, seq, k1, k2)
			} else if k1 > 0 {
				drops++
				if k1 > DefaultMaxRetransmits {
					t.Fatalf("drop count %d exceeds retransmission bound", k1)
				}
			}
		}
	}
	if delays == 0 || drops == 0 || stragglers == 0 {
		t.Fatalf("injection classes inactive: delays=%d drops=%d stragglers=%d", delays, drops, stragglers)
	}
}

func TestInjectorCrashTimes(t *testing.T) {
	in, err := New(Config{Events: []Event{
		{Time: 0.5, Ranks: []int{3}},
		{Time: 0.2, Ranks: []int{3, 5}},
		{Level: 7, Ranks: []int{1}}, // solver-level: engine ignores it
	}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.CrashTime(3); got != 0.2 {
		t.Fatalf("rank 3 crash time %g, want earliest event 0.2", got)
	}
	if got := in.CrashTime(5); got != 0.2 {
		t.Fatalf("rank 5 crash time %g, want 0.2", got)
	}
	if got := in.CrashTime(1); !math.IsInf(got, 1) {
		t.Fatalf("solver-level event leaked into engine crash times: %g", got)
	}
	if got := in.CrashTime(0); !math.IsInf(got, 1) {
		t.Fatalf("uncrashed rank has finite crash time %g", got)
	}
}

func TestInjectorShifted(t *testing.T) {
	in, err := New(Config{Events: []Event{
		{Time: 0.1, Ranks: []int{1}},
		{Time: 0.4, Ranks: []int{2}},
	}, DetectTimeout: 5e-3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := in.Shifted(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.CrashTime(1); !math.IsInf(got, 1) {
		t.Fatalf("already-fired event survived the shift: %g", got)
	}
	if got := sh.CrashTime(2); math.Abs(got-0.15) > 1e-15 {
		t.Fatalf("shifted crash time %g, want 0.15", got)
	}
	if sh.DetectTimeout() != in.DetectTimeout() {
		t.Fatalf("shift lost the detection timeout")
	}
}

func TestRetransmitWaitBackoff(t *testing.T) {
	in, err := New(Config{DropProb: 0.1, RetransmitTimeout: 1e-4, RetransmitBackoff: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := in.RetransmitWait(3), 1e-4+2e-4+4e-4; math.Abs(got-want) > 1e-18 {
		t.Fatalf("backoff wait %g, want %g", got, want)
	}
	if in.RetransmitWait(0) != 0 {
		t.Fatalf("zero drops should wait nothing")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{MTBF: 0.1},                   // missing horizon
		{DelayProb: 0.5},              // missing delay max
		{DropProb: 2},                 // probability out of range
		{StragglerFrac: 0.5},          // factor below 1
		{Events: []Event{{Time: -1}}}, // negative event time
		{MTBF: -1, Horizon: 1},        // negative mtbf
		{DetectTimeout: -1},           // negative timeout
		{RetransmitTimeout: -1, DropProb: 0.1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated unexpectedly: %+v", i, cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate: %v", err)
	}
	if _, err := New(Config{Events: []Event{{Time: 1, Ranks: []int{9}}}}, 4); err == nil {
		t.Fatalf("out-of-range crash rank accepted")
	}
}
