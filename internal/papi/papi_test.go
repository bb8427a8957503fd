package papi

import (
	"errors"
	"math"
	"testing"

	"repro/internal/power"
	"repro/internal/rapl"
)

func newLib(t *testing.T) (*Library, *rapl.Node) {
	t.Helper()
	node := rapl.NewNode(0)
	lib, err := Init(Version, node)
	if err != nil {
		t.Fatal(err)
	}
	return lib, node
}

func TestInitVersionCheck(t *testing.T) {
	node := rapl.NewNode(0)
	if _, err := Init(123, node); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("got %v, want version error", err)
	}
	if _, err := Init(Version, nil); err == nil {
		t.Fatal("nil node accepted")
	}
}

func TestThreadInit(t *testing.T) {
	lib, _ := newLib(t)
	if err := lib.ThreadInit(); err != nil {
		t.Fatal(err)
	}
	var nilLib *Library
	if err := nilLib.ThreadInit(); !errors.Is(err, ErrNotInitialized) {
		t.Fatal("nil library ThreadInit should fail")
	}
}

func TestComponentEnumeratesPowercap(t *testing.T) {
	lib, _ := newLib(t)
	want := []string{
		"powercap:::PACKAGE_ENERGY:PACKAGE0",
		"powercap:::PACKAGE_ENERGY:PACKAGE1",
		"powercap:::DRAM_ENERGY:PACKAGE0",
		"powercap:::DRAM_ENERGY:PACKAGE1",
	}
	if len(lib.byName) != len(want) {
		t.Fatalf("library exposes %d events, want %d", len(lib.byName), len(want))
	}
	for i, name := range want {
		if code, ok := lib.byName[name]; !ok || code != EventCode(i) {
			t.Errorf("event %q: code %d, %v; want %d", name, code, ok, i)
		}
	}
}

func TestEventNameToCode(t *testing.T) {
	lib, _ := newLib(t)
	code, err := lib.EventNameToCode("powercap:::PACKAGE_ENERGY:PACKAGE0")
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("code = %d, want 0", code)
	}
	if _, err := lib.EventNameToCode("nope"); !errors.Is(err, ErrNoEvent) {
		t.Fatalf("got %v, want ErrNoEvent", err)
	}
}

func TestDefaultEventNamesResolvable(t *testing.T) {
	lib, _ := newLib(t)
	names := DefaultEventNames()
	if len(names) != 4 {
		t.Fatalf("%d default events, want 4", len(names))
	}
	for _, n := range names {
		if _, err := lib.EventNameToCode(n); err != nil {
			t.Errorf("default event %q not resolvable: %v", n, err)
		}
	}
}

func TestStartStopMeasuresEnergy(t *testing.T) {
	lib, node := newLib(t)
	es, err := lib.CreateEventSet()
	if err != nil {
		t.Fatal(err)
	}
	if err := es.AddNamedEvents(DefaultEventNames()); err != nil {
		t.Fatal(err)
	}
	if err := node.SetTime(1); err != nil {
		t.Fatal(err)
	}
	if err := es.Start(); err != nil {
		t.Fatal(err)
	}
	// Simulate 10 s of 24 busy cores on each socket.
	if err := node.AccountBusy(0, 240); err != nil {
		t.Fatal(err)
	}
	if err := node.AccountBusy(1, 240); err != nil {
		t.Fatal(err)
	}
	if err := node.SetTime(11); err != nil {
		t.Fatal(err)
	}
	values, elapsed, err := es.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(elapsed-10) > 1e-9 {
		t.Fatalf("elapsed = %g, want 10", elapsed)
	}
	cal := power.Skylake8160()
	wantPkg0 := cal.PkgEnergy(10, 240, 0) * MicrojoulesPerJoule
	got := float64(values[0])
	// Allow the ~1 ms counter-granularity slack at both ends.
	slack := cal.PkgPower(24, 0) * 4e-3 * MicrojoulesPerJoule
	if math.Abs(got-wantPkg0) > slack {
		t.Fatalf("PKG0 = %g µJ, want %g ± %g", got, wantPkg0, slack)
	}
	if values[0] <= values[1] {
		t.Fatal("PKG0 should exceed PKG1 (OS noise)")
	}
	if values[2] <= 0 || values[3] <= 0 {
		t.Fatal("DRAM events must be positive (idle power)")
	}
}

func TestEventSetStateMachine(t *testing.T) {
	lib, node := newLib(t)
	es, _ := lib.CreateEventSet()

	if err := es.Start(); !errors.Is(err, ErrEmptySet) {
		t.Fatalf("empty Start = %v, want ErrEmptySet", err)
	}
	if _, err := es.Read(); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("Read before Start = %v, want ErrNotRunning", err)
	}
	if err := es.AddEvent(0); err != nil {
		t.Fatal(err)
	}
	if err := es.AddEvent(99); !errors.Is(err, ErrNoEvent) {
		t.Fatalf("bad code = %v, want ErrNoEvent", err)
	}
	if err := es.Start(); err != nil {
		t.Fatal(err)
	}
	if err := es.Start(); !errors.Is(err, ErrIsRunning) {
		t.Fatalf("double Start = %v, want ErrIsRunning", err)
	}
	if err := es.AddEvent(1); !errors.Is(err, ErrIsRunning) {
		t.Fatalf("AddEvent while running = %v", err)
	}
	if err := es.Cleanup(); !errors.Is(err, ErrIsRunning) {
		t.Fatalf("Cleanup while running = %v", err)
	}
	if err := es.Destroy(); !errors.Is(err, ErrIsRunning) {
		t.Fatalf("Destroy while running = %v", err)
	}
	if err := node.SetTime(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := es.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := es.Stop(); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("double Stop = %v, want ErrNotRunning", err)
	}
	if err := es.Cleanup(); err != nil {
		t.Fatal(err)
	}
	if len(es.events) != 0 {
		t.Fatal("Cleanup left events behind")
	}
	if err := es.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := es.AddEvent(0); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("use after Destroy = %v, want ErrDestroyed", err)
	}
	if err := es.Destroy(); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("double Destroy = %v", err)
	}
}

func TestReadIsMonotoneAndRunning(t *testing.T) {
	lib, node := newLib(t)
	es, _ := lib.CreateEventSet()
	if err := es.AddNamedEvents(DefaultEventNames()); err != nil {
		t.Fatal(err)
	}
	if err := es.Start(); err != nil {
		t.Fatal(err)
	}
	var prev int64 = -1
	for i := 1; i <= 5; i++ {
		if err := node.SetTime(float64(i)); err != nil {
			t.Fatal(err)
		}
		v, err := es.Read()
		if err != nil {
			t.Fatal(err)
		}
		if v[0] < prev {
			t.Fatalf("read %d: PKG0 decreased %d → %d", i, prev, v[0])
		}
		prev = v[0]
	}
}

func TestReadSurvivesCounterWrap(t *testing.T) {
	// Run long enough at idle power for the 32-bit counter to wrap
	// (horizon ≈ 2^32·61µJ / ~66W ≈ 4000 s) while sampling inside the
	// horizon; accumulated energy must match the exact model.
	lib, node := newLib(t)
	es, _ := lib.CreateEventSet()
	if err := es.AddNamedEvents([]string{"powercap:::PACKAGE_ENERGY:PACKAGE1"}); err != nil {
		t.Fatal(err)
	}
	if err := es.Start(); err != nil {
		t.Fatal(err)
	}
	total := 10000.0 // seconds, > one wrap at idle
	steps := 10
	for i := 1; i <= steps; i++ {
		if err := node.SetTime(total * float64(i) / float64(steps)); err != nil {
			t.Fatal(err)
		}
		if _, err := es.Read(); err != nil {
			t.Fatal(err)
		}
	}
	values, _, err := es.Stop()
	if err != nil {
		t.Fatal(err)
	}
	exact := node.ExactEnergy(rapl.PKG1) * MicrojoulesPerJoule
	got := float64(values[0])
	if math.Abs(got-exact)/exact > 0.001 {
		t.Fatalf("wrapped accumulation %g µJ vs exact %g µJ", got, exact)
	}
}
