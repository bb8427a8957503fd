package fault

import (
	"math"
	"sort"
)

// Event is one fault of the schedule: Ranks fail together. Engine-level
// events fire at virtual Time; solver-level consumers (IMe's checksum
// recovery, which survives a crash in place instead of aborting the job)
// schedule by elimination Level instead. An event carries one or the
// other: Level > 0 marks a solver-level event, which the engine injector
// ignores.
type Event struct {
	Time  float64 `json:"time,omitempty"`
	Level int     `json:"level,omitempty"`
	Ranks []int   `json:"ranks"`
}

// Schedule is a deterministic ordered list of fault events — the common
// currency between the MTBF generator, the engine injector, the
// solver-level recovery paths and the resilience experiments.
type Schedule struct {
	Events []Event `json:"events"`
}

// engineEvents filters out solver-level (Level > 0) events.
func engineEvents(events []Event) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Level > 0 {
			continue
		}
		out = append(out, ev)
	}
	return out
}

// sortEvents orders events by time, then first rank, for determinism.
func sortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Time != events[j].Time {
			return events[i].Time < events[j].Time
		}
		ri, rj := -1, -1
		if len(events[i].Ranks) > 0 {
			ri = events[i].Ranks[0]
		}
		if len(events[j].Ranks) > 0 {
			rj = events[j].Ranks[0]
		}
		return ri < rj
	})
}

// MTBFSchedule draws a crash schedule: inter-arrival times are
// exponential with mean mtbf, victims are uniform over the non-protected
// ranks, and generation stops at the horizon or after maxCrashes events
// (whichever first). The same (seed, mtbf, horizon, size) always yields
// the same schedule, bit for bit.
func MTBFSchedule(seed int64, mtbf, horizon float64, size, maxCrashes int, protected ...int) Schedule {
	var s Schedule
	if mtbf <= 0 || horizon <= 0 || size <= 0 {
		return s
	}
	if maxCrashes <= 0 {
		maxCrashes = DefaultMaxCrashes
	}
	excluded := make(map[int]bool, len(protected))
	for _, r := range protected {
		excluded[r] = true
	}
	var victims []int
	for r := 0; r < size; r++ {
		if !excluded[r] {
			victims = append(victims, r)
		}
	}
	if len(victims) == 0 {
		return s
	}
	// One splitmix64 stream drives the whole draw sequence.
	state := mix(uint64(seed) ^ 0x5ca1ab1e)
	next := func() uint64 {
		state = mix(state)
		return state
	}
	u01 := func() float64 { return float64(next()>>11) / (1 << 53) }
	t := 0.0
	for len(s.Events) < maxCrashes {
		u := u01()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		t += float64(-mtbf * math.Log(u))
		if t > horizon {
			break
		}
		victim := victims[int(next()%uint64(len(victims)))]
		s.Events = append(s.Events, Event{Time: t, Ranks: []int{victim}})
	}
	return s
}
