// Package papi reimplements the slice of the Performance API the paper's
// monitoring framework uses (§2.3, §4): library and thread initialisation,
// the powercap component, event-name-to-code translation, event sets, and
// start/stop/read of energy counters.
//
// The structure follows PAPI's layering: this package is the Portable
// Layer; the Machine Specific Layer underneath is the simulated RAPL node
// (internal/rapl). As in real PAPI's powercap component, event values are
// energy readings scaled to an integer unit — we report microjoules.
package papi

import (
	"errors"
	"fmt"

	"repro/internal/rapl"
)

// Version is the simulated PAPI version the library must be initialised
// with, mirroring PAPI_VER_CURRENT checking.
const Version = 7_00_01

// Errors mirroring PAPI return codes.
var (
	ErrNotInitialized = errors.New("papi: library not initialized (PAPI_ENOINIT)")
	ErrBadVersion     = errors.New("papi: version mismatch (PAPI_EVER)")
	ErrNoEvent        = errors.New("papi: event does not exist (PAPI_ENOEVNT)")
	ErrNotRunning     = errors.New("papi: event set not running (PAPI_ENOTRUN)")
	ErrIsRunning      = errors.New("papi: event set already running (PAPI_EISRUN)")
	ErrEmptySet       = errors.New("papi: event set has no events (PAPI_EINVAL)")
	ErrDestroyed      = errors.New("papi: event set destroyed (PAPI_EINVAL)")
)

// MicrojoulesPerJoule converts model joules to reported event units.
const MicrojoulesPerJoule = 1e6

// EventCode identifies one addable event, as returned by EventNameToCode.
type EventCode int

// Library is one initialised PAPI instance bound to the RAPL of one node.
// Real PAPI is process-global; one simulated node maps to one process in
// the paper's deployment, so the monitoring rank of each node owns one
// Library.
type Library struct {
	node   *rapl.Node
	events []rapl.Domain // by EventCode
	byName map[string]EventCode
}

// Init initialises the library against a node's RAPL, checking the caller
// was compiled against the current version (PAPI_library_init semantics).
func Init(version int, node *rapl.Node) (*Library, error) {
	if version != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, version, Version)
	}
	if node == nil {
		return nil, errors.New("papi: nil RAPL node")
	}
	// The powercap component: package and DRAM domains. As in the paper
	// (§4), "the monitored events will belong only to powercap event set
	// offered by PAPI"; most RAPL events of interest are included there.
	lib := &Library{node: node, events: rapl.Domains(), byName: make(map[string]EventCode)}
	for code, d := range lib.events {
		lib.byName["powercap:::"+d.String()] = EventCode(code)
	}
	return lib, nil
}

// ThreadInit enables per-thread counter use (PAPI_thread_init analog). The
// monitoring framework calls it right after Init.
func (l *Library) ThreadInit() error {
	if l == nil {
		return ErrNotInitialized
	}
	return nil
}

// EventNameToCode translates an event name to its code
// (papi_event_name_to_code in the paper's papi_monitoring.h).
func (l *Library) EventNameToCode(name string) (EventCode, error) {
	code, ok := l.byName[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoEvent, name)
	}
	return code, nil
}

// EventSet is a created-but-not-necessarily-running set of events.
type EventSet struct {
	lib       *Library
	events    []rapl.Domain
	running   bool
	destroyed bool
	startRaw  []uint32
	// accumulated holds wrap-corrected deltas carried across counter
	// refreshes while running, so arbitrarily long runs read correctly.
	accumulated []float64
	startTime   float64
}

// CreateEventSet returns an empty event set (PAPI_create_eventset).
func (l *Library) CreateEventSet() (*EventSet, error) {
	if l == nil {
		return nil, ErrNotInitialized
	}
	return &EventSet{lib: l}, nil
}

// AddEvent appends an event by code (PAPI_add_event).
func (es *EventSet) AddEvent(code EventCode) error {
	if err := es.usable(); err != nil {
		return err
	}
	if es.running {
		return ErrIsRunning
	}
	if int(code) < 0 || int(code) >= len(es.lib.events) {
		return fmt.Errorf("%w: code %d", ErrNoEvent, code)
	}
	es.events = append(es.events, es.lib.events[code])
	return nil
}

// AddNamedEvents resolves and adds each name, the pattern the paper's
// framework uses with its event_names array.
func (es *EventSet) AddNamedEvents(names []string) error {
	for _, n := range names {
		code, err := es.lib.EventNameToCode(n)
		if err != nil {
			return err
		}
		if err := es.AddEvent(code); err != nil {
			return err
		}
	}
	return nil
}

// Start begins counting and records the virtual start time
// (the paper's PAPI_start_AND_time).
func (es *EventSet) Start() error {
	if err := es.usable(); err != nil {
		return err
	}
	if es.running {
		return ErrIsRunning
	}
	if len(es.events) == 0 {
		return ErrEmptySet
	}
	es.startRaw = make([]uint32, len(es.events))
	es.accumulated = make([]float64, len(es.events))
	for i, d := range es.events {
		raw, err := es.readRaw(d)
		if err != nil {
			return err
		}
		es.startRaw[i] = raw
	}
	es.startTime = es.lib.node.Now()
	es.running = true
	return nil
}

// Read returns the microjoules accumulated per event since Start without
// stopping (PAPI_read). Reading also folds any counter wrap into the
// accumulator, so callers sampling at least once per wrap horizon get
// exact totals.
func (es *EventSet) Read() ([]int64, error) {
	if err := es.usable(); err != nil {
		return nil, err
	}
	if !es.running {
		return nil, ErrNotRunning
	}
	out := make([]int64, len(es.events))
	for i, d := range es.events {
		raw, err := es.readRaw(d)
		if err != nil {
			return nil, err
		}
		es.accumulated[i] += rapl.CounterDelta(es.startRaw[i], raw)
		es.startRaw[i] = raw
		out[i] = int64(es.accumulated[i] * MicrojoulesPerJoule)
	}
	return out, nil
}

// Stop ends counting and returns the final per-event microjoule totals
// together with the elapsed virtual time (the paper's PAPI_stop_AND_time).
func (es *EventSet) Stop() (values []int64, elapsed float64, err error) {
	values, err = es.Read()
	if err != nil {
		return nil, 0, err
	}
	es.running = false
	return values, es.lib.node.Now() - es.startTime, nil
}

// Cleanup removes all events from a stopped set (PAPI_cleanup_eventset).
func (es *EventSet) Cleanup() error {
	if err := es.usable(); err != nil {
		return err
	}
	if es.running {
		return ErrIsRunning
	}
	es.events = nil
	es.startRaw = nil
	es.accumulated = nil
	return nil
}

// Destroy releases the set (PAPI_destroy_eventset); further use errors.
func (es *EventSet) Destroy() error {
	if es.destroyed {
		return ErrDestroyed
	}
	if es.running {
		return ErrIsRunning
	}
	es.destroyed = true
	return nil
}

func (es *EventSet) usable() error {
	if es == nil || es.lib == nil {
		return ErrNotInitialized
	}
	if es.destroyed {
		return ErrDestroyed
	}
	return nil
}

// readRaw reads the raw counter behind an event through the MSR path, so
// the counter's update granularity applies exactly as it would to a real
// powercap component read.
func (es *EventSet) readRaw(d rapl.Domain) (uint32, error) {
	var addr uint32
	switch d {
	case rapl.PKG0, rapl.PKG1:
		addr = rapl.MSRPkgEnergyStatus
	case rapl.DRAM0, rapl.DRAM1:
		addr = rapl.MSRDramEnergyStatus
	default:
		return 0, fmt.Errorf("%w: domain %v", ErrNoEvent, d)
	}
	v, err := es.lib.node.ReadMSR(d.Socket(), addr)
	if err != nil {
		return 0, err
	}
	return uint32(v), nil
}

// DefaultEventNames returns the full powercap set in component order —
// the contents of the paper's event_names array.
func DefaultEventNames() []string {
	names := make([]string, 0, 4)
	for _, d := range rapl.Domains() {
		names = append(names, "powercap:::"+d.String())
	}
	return names
}
