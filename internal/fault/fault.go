// Package fault is the deterministic crash plane of the simulated
// cluster: a schedule of hard rank crashes the engine executes. The
// paper's motivation for studying IMe at all is its "integrated low-cost
// multiple fault tolerance" (§1, ref [7]); this package makes that
// resilience trade-off measurable by letting the engine charge the
// virtual time and node energy that crashes, recovery collectives and
// checkpoint/restart cost.
//
// A schedule is a pure function of its seed: MTBFSchedule draws crash
// times and victims from one splitmix64 stream, and nothing depends on
// wall-clock time or goroutine scheduling, so a schedule replays
// bit-identically across runs and across -j N parallel sweeps. The
// package deliberately imports nothing from the engine; internal/mpi
// consumes an *Injector through mpi.Options.
package fault

import (
	"fmt"
	"math"
)

// Config parametrises an Injector. The zero value injects nothing.
type Config struct {
	// Events are the crash events (MTBFSchedule draws them). Events with
	// Level > 0 are solver-level faults and are ignored by the engine
	// injector (see Schedule).
	Events []Event

	// DetectTimeout is the failure-detection latency: a live rank blocked
	// on a crashed peer charges busy-wait up to crashTime+DetectTimeout
	// before its operation returns ErrRankFailed
	// (DefaultDetectTimeout when 0).
	DetectTimeout float64
}

// Defaults applied for zero-valued knobs.
const (
	DefaultMaxCrashes    = 16
	DefaultDetectTimeout = 1e-3 // 1 ms failure-detection latency
)

// Validate reports an error for non-physical parameters.
func (c Config) Validate() error {
	if c.DetectTimeout < 0 {
		return fmt.Errorf("fault: negative detection timeout %g", c.DetectTimeout)
	}
	for _, ev := range c.Events {
		if ev.Time < 0 {
			return fmt.Errorf("fault: event at negative time %g", ev.Time)
		}
	}
	return nil
}

// Injector is a compiled crash schedule for one world. All methods are
// pure and safe for concurrent use.
type Injector struct {
	detect  float64
	size    int
	crashAt []float64 // per world rank; +Inf = never
	events  []Event   // resolved engine-level crash events, by time
}

// New compiles cfg for a world of size ranks: engine-level events are
// ordered and resolved to per-rank crash times. The result is immutable.
func New(cfg Config, size int) (*Injector, error) {
	if size <= 0 {
		return nil, fmt.Errorf("fault: world size %d must be positive", size)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.DetectTimeout == 0 {
		cfg.DetectTimeout = DefaultDetectTimeout
	}
	in := &Injector{detect: cfg.DetectTimeout, size: size, events: engineEvents(cfg.Events)}
	sortEvents(in.events)
	in.crashAt = make([]float64, size)
	for r := range in.crashAt {
		in.crashAt[r] = math.Inf(1)
	}
	for _, ev := range in.events {
		for _, r := range ev.Ranks {
			if r < 0 || r >= size {
				return nil, fmt.Errorf("fault: crash rank %d out of range [0,%d)", r, size)
			}
			if ev.Time < in.crashAt[r] {
				in.crashAt[r] = ev.Time
			}
		}
	}
	return in, nil
}

// CrashTime returns the virtual time at which rank crashes (+Inf when it
// never does).
func (in *Injector) CrashTime(rank int) float64 {
	if in == nil || rank < 0 || rank >= len(in.crashAt) {
		return math.Inf(1)
	}
	return in.crashAt[rank]
}

// Events returns the resolved engine-level crash events in time order.
func (in *Injector) Events() []Event {
	out := make([]Event, len(in.events))
	copy(out, in.events)
	return out
}

// DetectTimeout is the failure-detection latency survivors charge.
func (in *Injector) DetectTimeout() float64 { return in.detect }

// Size returns the world size the injector was compiled for.
func (in *Injector) Size() int { return in.size }

// Shifted returns an injector whose crash events are moved dt seconds
// earlier, dropping events that have already fired — how checkpoint/
// restart maps one absolute schedule onto successive restart segments,
// each of which starts its virtual clock at zero. The detection timeout
// is unchanged.
func (in *Injector) Shifted(dt float64) (*Injector, error) {
	cfg := Config{DetectTimeout: in.detect}
	for _, ev := range in.events {
		if ev.Time-dt <= 0 {
			continue
		}
		cfg.Events = append(cfg.Events, Event{Time: ev.Time - dt, Ranks: ev.Ranks})
	}
	return New(cfg, in.size)
}

// mix is the splitmix64 finaliser — the deterministic hash behind every
// crash draw.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
