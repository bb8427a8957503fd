// Package fault is the deterministic fault-injection plane of the
// simulated cluster: a seed-driven schedule of message delay/jitter,
// message drops with bounded retransmission, straggler ranks and hard
// rank crashes. The paper's motivation for studying IMe at all is its
// "integrated low-cost multiple fault tolerance" (§1, ref [7]); this
// package makes that resilience trade-off measurable by letting the
// engine charge the virtual time and node energy that failures, recovery
// collectives and checkpoint/restart cost.
//
// Every decision is a pure function of (seed, identifiers): per-message
// choices hash (src, dst, per-pair sequence number), per-rank choices
// hash the rank. Nothing depends on wall-clock time or goroutine
// scheduling, so a schedule replays bit-identically across runs and
// across -j N parallel sweeps. The package deliberately imports nothing
// from the engine; internal/mpi consumes an *Injector through
// mpi.Options.
package fault

import (
	"fmt"
	"math"
)

// Config parametrises an Injector. The zero value injects nothing.
type Config struct {
	// Seed drives every pseudo-random decision.
	Seed int64

	// MTBF is the mean time between rank crashes across the whole world,
	// in virtual seconds (exponential inter-arrival). 0 disables
	// MTBF-driven crashes; explicit Events still apply.
	MTBF float64
	// Horizon bounds MTBF-driven crash times (no crashes are scheduled
	// past it). Required when MTBF > 0.
	Horizon float64
	// MaxCrashes bounds the number of MTBF-driven crash events
	// (DefaultMaxCrashes when 0).
	MaxCrashes int
	// Protected lists world ranks that never crash (e.g. IMe's master,
	// which owns the irreplaceable auxiliary vector h).
	Protected []int
	// Events are explicit crash events, merged with the MTBF draws.
	// Events with Level > 0 are solver-level faults and are ignored by
	// the engine injector (see Schedule).
	Events []Event

	// DetectTimeout is the failure-detection latency: a live rank blocked
	// on a crashed peer charges busy-wait up to crashTime+DetectTimeout
	// before its operation returns ErrRankFailed
	// (DefaultDetectTimeout when 0).
	DetectTimeout float64

	// DelayProb adds jitter: with this probability a message's in-flight
	// time is extended by a uniform draw from (0, DelayMax].
	DelayProb float64
	DelayMax  float64

	// DropProb is the per-transmission loss probability. A dropped
	// transmission is retransmitted after RetransmitTimeout, backing off
	// by RetransmitBackoff per retry, at most MaxRetransmits times; the
	// sender pays one send overhead per retry and the payload arrives
	// late. Retransmission is bounded, so drops cost time and energy but
	// never lose a message.
	DropProb          float64
	MaxRetransmits    int
	RetransmitTimeout float64
	RetransmitBackoff float64

	// StragglerFrac dilates the compute time of roughly this fraction of
	// ranks by StragglerFactor (≥ 1) — the slow-node scenario.
	StragglerFrac   float64
	StragglerFactor float64
}

// Defaults applied by New for zero-valued knobs.
const (
	DefaultMaxCrashes        = 16
	DefaultDetectTimeout     = 1e-3 // 1 ms failure-detection latency
	DefaultMaxRetransmits    = 4
	DefaultRetransmitTimeout = 1e-4 // 100 µs retransmission timer
	DefaultRetransmitBackoff = 2.0
)

// Validate reports an error for non-physical parameters.
func (c Config) Validate() error {
	if c.MTBF < 0 || c.Horizon < 0 || c.DetectTimeout < 0 {
		return fmt.Errorf("fault: negative time parameter in %+v", c)
	}
	if c.MTBF > 0 && c.Horizon <= 0 {
		return fmt.Errorf("fault: MTBF %g needs a positive horizon", c.MTBF)
	}
	if c.DelayProb < 0 || c.DelayProb > 1 || c.DropProb < 0 || c.DropProb > 1 || c.StragglerFrac < 0 || c.StragglerFrac > 1 {
		return fmt.Errorf("fault: probability out of [0,1] in %+v", c)
	}
	if c.DelayProb > 0 && c.DelayMax <= 0 {
		return fmt.Errorf("fault: DelayProb %g needs a positive DelayMax", c.DelayProb)
	}
	if c.StragglerFrac > 0 && c.StragglerFactor < 1 {
		return fmt.Errorf("fault: straggler factor %g must be ≥ 1", c.StragglerFactor)
	}
	if c.MaxRetransmits < 0 || c.RetransmitTimeout < 0 || c.RetransmitBackoff < 0 {
		return fmt.Errorf("fault: negative retransmission parameter in %+v", c)
	}
	for _, ev := range c.Events {
		if ev.Time < 0 {
			return fmt.Errorf("fault: event at negative time %g", ev.Time)
		}
	}
	return nil
}

// Injector is a compiled fault schedule for one world. All methods are
// pure and safe for concurrent use.
type Injector struct {
	cfg      Config
	size     int
	seed     uint64
	crashAt  []float64 // per world rank; +Inf = never
	dilation []float64 // per world rank compute-time multiplier
	events   []Event   // resolved engine-level crash events, by time
	hasDelay bool
	hasDrop  bool
}

// New compiles cfg for a world of size ranks: MTBF crash times are drawn,
// explicit events merged, and the per-rank straggler set resolved. The
// result is immutable.
func New(cfg Config, size int) (*Injector, error) {
	if size <= 0 {
		return nil, fmt.Errorf("fault: world size %d must be positive", size)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxCrashes == 0 {
		cfg.MaxCrashes = DefaultMaxCrashes
	}
	if cfg.DetectTimeout == 0 {
		cfg.DetectTimeout = DefaultDetectTimeout
	}
	if cfg.MaxRetransmits == 0 {
		cfg.MaxRetransmits = DefaultMaxRetransmits
	}
	if cfg.RetransmitTimeout == 0 {
		cfg.RetransmitTimeout = DefaultRetransmitTimeout
	}
	if cfg.RetransmitBackoff == 0 {
		cfg.RetransmitBackoff = DefaultRetransmitBackoff
	}
	in := &Injector{
		cfg:      cfg,
		size:     size,
		seed:     mix(uint64(cfg.Seed)),
		hasDelay: cfg.DelayProb > 0,
		hasDrop:  cfg.DropProb > 0,
	}
	events := append([]Event(nil), engineEvents(cfg.Events)...)
	if cfg.MTBF > 0 {
		drawn := MTBFSchedule(cfg.Seed, cfg.MTBF, cfg.Horizon, size, cfg.MaxCrashes, cfg.Protected...)
		events = append(events, drawn.Events...)
	}
	sortEvents(events)
	in.events = events
	in.crashAt = make([]float64, size)
	for r := range in.crashAt {
		in.crashAt[r] = math.Inf(1)
	}
	for _, ev := range events {
		for _, r := range ev.Ranks {
			if r < 0 || r >= size {
				return nil, fmt.Errorf("fault: crash rank %d out of range [0,%d)", r, size)
			}
			if ev.Time < in.crashAt[r] {
				in.crashAt[r] = ev.Time
			}
		}
	}
	if cfg.StragglerFrac > 0 {
		in.dilation = make([]float64, size)
		for r := range in.dilation {
			in.dilation[r] = 1
			if in.u01(kindStraggler, uint64(r), 0, 0) < cfg.StragglerFrac {
				in.dilation[r] = cfg.StragglerFactor
			}
		}
	}
	return in, nil
}

// decision kinds, folded into the hash so the random streams of different
// fault classes never alias.
const (
	kindStraggler = iota + 1
	kindDelayGate
	kindDelayAmount
	kindDrop
)

// u01 returns the deterministic uniform(0,1) draw of one decision.
func (in *Injector) u01(kind int, a, b, c uint64) float64 {
	h := in.seed
	h = mix(h ^ uint64(kind))
	h = mix(h ^ a)
	h = mix(h ^ b<<1)
	h = mix(h ^ c<<2)
	return float64(h>>11) / (1 << 53)
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
func (in *Injector) DetectTimeout() float64 { return in.cfg.DetectTimeout }

// Size returns the world size the injector was compiled for.
func (in *Injector) Size() int { return in.size }

// Dilation returns the compute-time multiplier of a rank (1 when it is
// not a straggler).
func (in *Injector) Dilation(rank int) float64 {
	if in == nil || in.dilation == nil {
		return 1
	}
	return in.dilation[rank]
}

// Delay returns the extra in-flight delay of the seq-th message from src
// to dst (0 for most messages).
func (in *Injector) Delay(src, dst, seq int) float64 {
	if !in.hasDelay {
		return 0
	}
	if in.u01(kindDelayGate, uint64(src), uint64(dst), uint64(seq)) >= in.cfg.DelayProb {
		return 0
	}
	return in.u01(kindDelayAmount, uint64(src), uint64(dst), uint64(seq)) * in.cfg.DelayMax
}

// Drops returns how many transmissions of the seq-th (src → dst) message
// are lost before one goes through, bounded by MaxRetransmits: the sender
// retransmits after the (backed-off) timeout and pays a send overhead per
// retry, so drops cost virtual time and energy but never lose payloads.
func (in *Injector) Drops(src, dst, seq int) int {
	if !in.hasDrop {
		return 0
	}
	k := 0
	for k < in.cfg.MaxRetransmits &&
		in.u01(kindDrop, uint64(src), uint64(dst), uint64(seq)<<8|uint64(k)) < in.cfg.DropProb {
		k++
	}
	return k
}

// RetransmitWait returns the total timeout a sender waits through for k
// dropped transmissions (exponential backoff), plus per-try costs.
func (in *Injector) RetransmitWait(k int) float64 {
	wait, to := 0.0, in.cfg.RetransmitTimeout
	for i := 0; i < k; i++ {
		wait += to
		to *= in.cfg.RetransmitBackoff
	}
	return wait
}

// Shifted returns an injector whose crash events are moved dt seconds
// earlier, dropping events that have already fired — how checkpoint/
// restart maps one absolute schedule onto successive restart segments,
// each of which starts its virtual clock at zero. Message-level and
// straggler decisions are unchanged.
func (in *Injector) Shifted(dt float64) (*Injector, error) {
	cfg := in.cfg
	cfg.MTBF = 0 // events below already include the MTBF draws
	cfg.Events = nil
	for _, ev := range in.events {
		if ev.Time-dt <= 0 {
			continue
		}
		cfg.Events = append(cfg.Events, Event{Time: ev.Time - dt, Ranks: ev.Ranks})
	}
	return New(cfg, in.size)
}

// mix is the splitmix64 finaliser — the deterministic hash behind every
// injection decision.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
