package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// rounds is how many equal slices a run's measuring time is cut into.
// Each starts with the calibration loop, so a run says for itself whether
// the machine held still across it (bench.calib_spread).
const rounds = 5

// setups is how many times a run sets the workload up; setup_s is the
// median, and the ops run on the last instance.
const setups = 3

// opTimeout is the per-chunk watchdog: the engine can deadlock (ROADMAP
// open item 1), and a hung benchmark must fail, not hang.
const opTimeout = 60 * time.Second

// config is what the command line chooses for a run.
type config struct {
	seed    int64
	seconds float64
	smoke   bool   // two chunks per workload, one set-up
	outDir  string // scratch and trace output, inside the checkout
}

// shape returns how many set-ups and rounds a run makes and how many
// chunks a round is capped at (0: as many as its time allows).
func (c config) shape() (nSetups, nRounds, maxChunks int) {
	if c.smoke {
		return 1, 1, 2
	}
	return setups, rounds, 0
}

// workload is one set of inputs the suite runs. README.md describes the
// five; why is the one-line reason BENCHMARK.json records.
type workload struct {
	name, why string
	// warmup is the number of untimed ops that end set-up, so pools,
	// mat.CachedSystem and the kernel pool are hot before the first
	// timed op.
	warmup int
	// chunk is the number of ops timed back to back between two
	// verifications; clients is how many closed-loop clients share them.
	chunk, clients int
	// miniOps is how many traced ops another workload's traced run
	// spends here to fill this workload's span metrics.
	miniOps int
	setup   func(seed int64, outDir string) (instance, error)
}

// instance is one set-up workload: its generated inputs and whatever
// state its ops share.
type instance interface {
	// prepare generates the inputs of ops [lo,hi), outside the timed
	// interval.
	prepare(lo, hi int) error
	// run executes op i inside the timed interval and keeps its outputs;
	// root is the op's span, tr nil when tracing is off.
	run(i int, tr *tracer, root int) error
	// check verifies the outputs run(i) kept, outside the timed interval.
	check(i int) error
	// fingerprint returns the simulated statistics of the first ops.
	fingerprint() fingerprint
	// layers adds the workload's per-layer metrics: what its spans say
	// plus the probes that need its inputs.
	layers(tr *tracer, out map[string]float64) error
	// close runs the end-of-run checks and releases what set-up acquired.
	close() error
}

// sample accumulates what the timed chunks of one run measured.
type sample struct {
	opMS      []float64
	wall      time.Duration
	mallocs   uint64
	bytes     uint64
	attempted int
	failed    int
	failures  []string // first few, for the log
}

func (s *sample) fail(i int, err error) {
	s.failed++
	if len(s.failures) < 5 {
		s.failures = append(s.failures, fmt.Sprintf("op %d: %v", i, err))
	}
}

// merge adds another pass's attempts and failures (not its timings).
func (s *sample) merge(wl *workload, other *sample) {
	s.attempted += other.attempted
	s.failed += other.failed
	for _, f := range other.failures {
		s.failures = append(s.failures, wl.name+" "+f)
	}
}

// watchdog exits the process with every goroutine's stack when a chunk
// outlives opTimeout.
type watchdog struct{ deadline atomic.Int64 }

func startWatchdog() *watchdog {
	w := &watchdog{}
	go func() {
		for range time.Tick(time.Second) {
			if d := w.deadline.Load(); d != 0 && time.Now().UnixNano() > d {
				fmt.Fprintf(os.Stderr, "bench: watchdog: a chunk ran longer than %v; goroutine stacks follow\n", opTimeout)
				pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
				os.Exit(3)
			}
		}
	}()
	return w
}

func (w *watchdog) arm() {
	if w != nil {
		w.deadline.Store(time.Now().Add(opTimeout).UnixNano())
	}
}

func (w *watchdog) disarm() {
	if w != nil {
		w.deadline.Store(0)
	}
}

// dog is started by main; the unit tests run no chunks and leave it nil.
var dog *watchdog

// runChunk prepares, times and verifies ops [lo,hi). A nil sample (the
// warm-up) discards the measurements but still verifies.
func runChunk(wl *workload, inst instance, lo, hi int, tr *tracer, smp *sample) error {
	if err := inst.prepare(lo, hi); err != nil {
		return fmt.Errorf("prepare ops %d..%d: %w", lo, hi, err)
	}
	n := hi - lo
	times := make([]float64, n)
	errs := make([]error, n)
	one := func(i int) {
		root := tr.begin("op", i, -1)
		t0 := time.Now()
		err := inst.run(i, tr, root)
		times[i-lo] = time.Since(t0).Seconds() * 1e3
		tr.finish(root)
		errs[i-lo] = err
	}

	var before, after runtime.MemStats
	dog.arm()
	runtime.ReadMemStats(&before)
	start := time.Now()
	if wl.clients <= 1 {
		for i := lo; i < hi; i++ {
			one(i)
		}
	} else {
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		for c := 0; c < wl.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= hi {
						return
					}
					one(i)
				}
			}()
		}
		wg.Wait()
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	dog.disarm()

	var firstErr error
	for i := lo; i < hi; i++ {
		err := errs[i-lo]
		if err == nil {
			err = inst.check(i)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("op %d: %w", i, err)
		}
		if smp != nil && err != nil {
			smp.fail(i, err)
		}
	}
	if smp != nil {
		smp.opMS = append(smp.opMS, times...)
		smp.wall += wall
		smp.mallocs += after.Mallocs - before.Mallocs
		smp.bytes += after.TotalAlloc - before.TotalAlloc
		smp.attempted += n
	}
	return firstErr
}

// setUp builds an instance and runs its warm-up ops; a warm-up op that
// fails its check fails set-up.
func setUp(wl *workload, cfg config) (instance, time.Duration, error) {
	start := time.Now()
	inst, err := wl.setup(cfg.seed, cfg.outDir)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	for lo := 0; lo < wl.warmup; lo += wl.chunk {
		if err := runChunk(wl, inst, lo, min(lo+wl.chunk, wl.warmup), nil, nil); err != nil {
			inst.close()
			return nil, 0, fmt.Errorf("%s: warm-up: %w", wl.name, err)
		}
	}
	return inst, time.Since(start), nil
}

// measure runs chunks from op next on until budget has elapsed (or, with
// maxChunks > 0, for exactly that many chunks) and returns the next op.
func measure(wl *workload, inst instance, next int, budget time.Duration, maxChunks int, tr *tracer, smp *sample) int {
	start := time.Now()
	for chunks := 0; ; chunks++ {
		if maxChunks > 0 && chunks >= maxChunks {
			break
		}
		if maxChunks == 0 && time.Since(start) >= budget {
			break
		}
		runChunk(wl, inst, next, next+wl.chunk, tr, smp) // failures are counted in smp
		next += wl.chunk
	}
	return next
}

// calibrate times a fixed pure-Go multiply-add loop. It measures the
// machine, not the repository: bench.calib_spread is its max ÷ min over
// a run's rounds.
func calibrate() float64 {
	const n = 1 << 22
	x, y := 1.0000001, 0.5
	start := time.Now()
	for i := 0; i < n; i++ {
		y = y*x + 1e-9
	}
	calibSink = y
	return time.Since(start).Seconds() * 1e3
}

var calibSink float64

func spread(xs []float64) float64 {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return hi / lo
}

// outcome is one untraced run of one workload.
type outcome struct {
	setupS   []float64
	smp      sample
	calibMS  []float64
	roundP50 []float64 // op_p50_ms of each round alone
	fp       fingerprint
	values   map[string]float64 // the end-to-end metrics
	err      error              // what stopped the run short, if anything
}

// runUntraced sets the workload up, measures it for cfg.seconds in
// rounds, and derives the six end-to-end metrics.
func runUntraced(wl *workload, cfg config) outcome {
	var out outcome
	nSetups, nRounds, maxChunks := cfg.shape()
	var inst instance
	for i := 0; i < nSetups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				out.err = err
				return out
			}
		}
		var d time.Duration
		var err error
		if inst, d, err = setUp(wl, cfg); err != nil {
			out.err = err
			return out
		}
		out.setupS = append(out.setupS, d.Seconds())
	}

	next := wl.warmup
	budget := time.Duration(cfg.seconds / float64(nRounds) * float64(time.Second))
	for r := 0; r < nRounds; r++ {
		out.calibMS = append(out.calibMS, calibrate())
		before := len(out.smp.opMS)
		next = measure(wl, inst, next, budget, maxChunks, nil, &out.smp)
		out.roundP50 = append(out.roundP50, median(out.smp.opMS[before:]))
	}
	out.fp = inst.fingerprint()
	if err := inst.close(); err != nil {
		out.smp.fail(next, fmt.Errorf("end-of-run check: %w", err))
	}
	out.values = endToEndValues(out.setupS, &out.smp)
	return out
}

// endToEndValues derives the six end-to-end metrics from a run's samples.
func endToEndValues(setupS []float64, smp *sample) map[string]float64 {
	sorted := sortedCopy(smp.opMS)
	ops := float64(len(sorted))
	return map[string]float64{
		"setup_s":         median(setupS),
		"op_p50_ms":       median(sorted),
		"op_p90_ms":       percentile(sorted, 0.9),
		"ops_per_s":       ops / smp.wall.Seconds(),
		"allocs_per_op":   float64(smp.mallocs) / ops,
		"alloc_mb_per_op": float64(smp.bytes) / ops / 1e6,
	}
}
