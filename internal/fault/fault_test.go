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

func TestInjectorFromMTBFSchedule(t *testing.T) {
	sched := MTBFSchedule(42, 0.1, 2, 32, 0, 0)
	a, err := New(Config{Events: sched.Events}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events(), sched.Events) {
		t.Fatalf("injector reordered a drawn schedule:\n%+v\n%+v", a.Events(), sched.Events)
	}
	if len(sched.Events) != DefaultMaxCrashes {
		t.Fatalf("maxCrashes 0 drew %d events, want the default %d", len(sched.Events), DefaultMaxCrashes)
	}
	for _, ev := range sched.Events {
		if got := a.CrashTime(ev.Ranks[0]); got > ev.Time {
			t.Fatalf("rank %d crash time %g after its event at %g", ev.Ranks[0], got, ev.Time)
		}
	}
	if got := a.CrashTime(0); !math.IsInf(got, 1) {
		t.Fatalf("protected rank 0 crashes at %g", got)
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

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Events: []Event{{Time: -1}}}, // negative event time
		{DetectTimeout: -1},           // negative timeout
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
