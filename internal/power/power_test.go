package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSkylakeCalibrationValid(t *testing.T) {
	if err := Skylake8160().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsImplausible(t *testing.T) {
	cases := []Calibration{
		{},                                     // all zero
		{PkgIdle: -1, CoreActive: 1, TDP: 100}, // negative idle
		{PkgIdle: 50, CoreActive: 1, TDP: 100, DramPerByte: -1},
		{PkgIdle: 200, CoreActive: 1, TDP: 100}, // idle > TDP
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestFullLoadNearTDP anchors the calibration: 24 active cores must draw
// within a few percent of the Xeon 8160's 150 W TDP.
func TestFullLoadNearTDP(t *testing.T) {
	c := Skylake8160()
	p := c.FullLoadPkgPower(24, 1)
	if math.Abs(p-c.TDP)/c.TDP > 0.05 {
		t.Fatalf("full-load package power %.1f W not within 5%% of TDP %.1f W", p, c.TDP)
	}
}

// TestIdleSocketFraction reproduces §5.3: the nominally idle socket
// consumes 40–50% of the fully busy one ("the energy consumption of one
// socket is 50-60% lower than the other").
func TestIdleSocketFraction(t *testing.T) {
	c := Skylake8160()
	busy := c.PkgPower(24, 0) // socket 0 busy, hosts OS
	idle := c.PkgPower(0, 1)  // socket 1 idle
	frac := idle / busy
	if frac < 0.38 || frac > 0.52 {
		t.Fatalf("idle/busy socket power fraction = %.2f, want 0.40–0.50", frac)
	}
}

// TestSocketZeroNoise reproduces the paper's observation that package 0
// consistently consumes more than package 1 at equal load.
func TestSocketZeroNoise(t *testing.T) {
	c := Skylake8160()
	if c.PkgPower(12, 0) <= c.PkgPower(12, 1) {
		t.Fatal("socket 0 must draw more than socket 1 at equal load")
	}
}

func TestPkgEnergyMatchesPowerIntegral(t *testing.T) {
	c := Skylake8160()
	// Constant activity: k cores busy for the whole interval ⇒ energy must
	// equal power × time exactly.
	f := func(coresRaw uint8, secondsRaw uint8) bool {
		cores := int(coresRaw % 25)
		secs := float64(secondsRaw%100) + 1
		for socket := 0; socket < 2; socket++ {
			e := c.PkgEnergy(secs, float64(cores)*secs, socket)
			p := c.PkgPower(cores, socket)
			if math.Abs(e-p*secs) > 1e-9*e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPkgEnergyAdditive(t *testing.T) {
	// Splitting an interval must not change total energy.
	c := Skylake8160()
	f := func(aRaw, bRaw uint8) bool {
		a, b := float64(aRaw)+1, float64(bRaw)+1
		busyA, busyB := a*3, b*7
		whole := c.PkgEnergy(a+b, busyA+busyB, 0)
		parts := c.PkgEnergy(a, busyA, 0) + c.PkgEnergy(b, busyB, 0)
		return math.Abs(whole-parts) <= 1e-9*whole
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDramEnergyMonotoneInTraffic(t *testing.T) {
	c := Skylake8160()
	lo := c.DramEnergy(10, 1e9)
	hi := c.DramEnergy(10, 2e9)
	if hi <= lo {
		t.Fatal("more traffic must cost more DRAM energy")
	}
	if c.DramEnergy(10, 0) != c.DramIdle*10 {
		t.Fatal("zero traffic must cost exactly idle energy")
	}
}

func TestDramPowerAtStreamBandwidth(t *testing.T) {
	// At ~100 GB/s sustained (six DDR4-2666 channels), the DRAM domain
	// should draw a plausible 40–80 W.
	c := Skylake8160()
	p := c.DramPower(100e9)
	if p < 30 || p > 90 {
		t.Fatalf("DRAM power at 100 GB/s = %.1f W, implausible", p)
	}
}

func TestUncorePowerQuadratic(t *testing.T) {
	c := Skylake8160()
	full := c.UncorePower(24, 24)
	if full != c.UncoreLoad {
		t.Fatalf("full-socket uncore = %g, want %g", full, c.UncoreLoad)
	}
	half := c.UncorePower(12, 24)
	if half >= full/2 {
		t.Fatalf("uncore not superlinear: 12 cores %g vs 24 cores %g", half, full)
	}
	// Packing beats splitting: 24 on one socket > 12+12 across two.
	if c.UncorePower(24, 24) <= 2*c.UncorePower(12, 24) {
		t.Fatal("one packed socket should draw more uncore than a 12+12 split")
	}
	if c.UncorePower(0, 24) != 0 || c.UncorePower(5, 0) != 0 {
		t.Fatal("degenerate uncore inputs should be free")
	}
}

// TestFullVsHalfLoadEnergy reproduces the headline of Fig. 3 at the model
// level: running 2T core-seconds of work as 48 cores on 1 node for T
// seconds consumes less package energy than 24 cores on 2 nodes for T
// seconds, because the second node pays idle+noise power too.
func TestFullVsHalfLoadEnergy(t *testing.T) {
	c := Skylake8160()
	T := 100.0
	full := c.PkgEnergy(T, 24*T, 0) + c.PkgEnergy(T, 24*T, 1)    // one node, both sockets busy
	half := 2 * (c.PkgEnergy(T, 24*T, 0) + c.PkgEnergy(T, 0, 1)) // two nodes, socket 0 busy
	if full >= half {
		t.Fatalf("full-load energy %.0f J should beat half-load %.0f J", full, half)
	}
}

// TestSlowdownUnderCap pins the PL1 model capped cells are priced with:
// no stretch uncapped or under a slack cap, a stretch that grows as the
// cap tightens, and the MaxCapSlowdown clamp for a cap at or below idle.
func TestSlowdownUnderCap(t *testing.T) {
	c := Skylake8160()
	if s := c.SlowdownUnderCap(0, 24, 0); s != 1 {
		t.Fatalf("uncapped slowdown = %g", s)
	}
	full := c.PkgPower(24, 0)
	if s := c.SlowdownUnderCap(full+10, 24, 0); s != 1 {
		t.Fatalf("slack cap slowdown = %g", s)
	}
	s75 := c.SlowdownUnderCap(0.75*full, 24, 0)
	if s75 <= 1 {
		t.Fatalf("tight cap slowdown = %g, want > 1", s75)
	}
	if s60 := c.SlowdownUnderCap(0.6*full, 24, 0); s60 <= s75 {
		t.Fatalf("tighter cap must slow more: %g <= %g", s60, s75)
	}
	if s := c.SlowdownUnderCap(1, 24, 0); s != MaxCapSlowdown {
		t.Fatalf("sub-idle cap slowdown = %g, want clamp %g", s, MaxCapSlowdown)
	}
}
