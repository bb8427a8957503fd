package monitor

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/papi"
)

// newClusterWorld builds a world of two full-load nodes (96 ranks).
func newClusterWorld(t *testing.T) *mpi.World {
	t.Helper()
	cfg, err := cluster.NewConfig(96, cluster.FullLoad, cluster.MarconiA3())
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(96, mpi.Options{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestMonitoringRankDesignation(t *testing.T) {
	w := newClusterWorld(t)
	var mu sync.Mutex
	monitors := map[int]bool{}
	err := w.Run(func(p *mpi.Proc) error {
		s, err := Setup(p, p.World())
		if err != nil {
			return err
		}
		if s.IsMonitor {
			mu.Lock()
			monitors[p.Rank()] = true
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Highest rank of each 48-rank node: 47 and 95.
	if len(monitors) != 2 || !monitors[47] || !monitors[95] {
		t.Fatalf("monitoring ranks = %v, want {47, 95}", monitors)
	}
}

func TestMonitoredRunMeasuresEnergy(t *testing.T) {
	w := newClusterWorld(t)
	var mu sync.Mutex
	var reports []NodeReport
	err := w.Run(func(p *mpi.Proc) error {
		s, err := Setup(p, p.World())
		if err != nil {
			return err
		}
		if err := s.StartMonitoring(); err != nil {
			return err
		}
		// The "solver part": every rank computes for 0.5 virtual seconds.
		p.Compute(0.5, 1e6)
		rep, err := s.StopMonitoring()
		if err != nil {
			return err
		}
		all, err := CollectReports(p, p.World(), rep)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			mu.Lock()
			reports = all
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d node reports, want 2", len(reports))
	}
	for _, r := range reports {
		if r.ElapsedS < 0.5 {
			t.Errorf("node %d elapsed %g < compute time", r.Node, r.ElapsedS)
		}
		if r.TotalJoules() <= 0 {
			t.Errorf("node %d measured no energy", r.Node)
		}
		if len(r.Events) != 4 || len(r.Microjoule) != 4 {
			t.Errorf("node %d has %d events", r.Node, len(r.Events))
		}
		if r.AvgPowerW() < 50 || r.AvgPowerW() > 500 {
			t.Errorf("node %d avg power %.1f W implausible", r.Node, r.AvgPowerW())
		}
	}
	sum := Summarize(reports)
	if sum.Nodes != 2 || sum.TotalJ <= 0 || sum.AvgPowerW() <= 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if len(sum.ByEvent) != 4 {
		t.Fatalf("summary has %d events", len(sum.ByEvent))
	}
	// PKG0 must exceed PKG1 (socket-0 OS noise).
	if sum.ByEvent["powercap:::PACKAGE_ENERGY:PACKAGE0"] <= sum.ByEvent["powercap:::PACKAGE_ENERGY:PACKAGE1"] {
		t.Fatal("PKG0 should exceed PKG1")
	}
}

func TestMonitoringSessionStateMachine(t *testing.T) {
	w := newClusterWorld(t)
	err := w.Run(func(p *mpi.Proc) error {
		s, err := Setup(p, p.World())
		if err != nil {
			return err
		}
		if _, err := s.StopMonitoring(); err == nil {
			return errStr("stop before start accepted")
		}
		if err := s.StartMonitoring(); err != nil {
			return err
		}
		if err := s.StartMonitoring(); err == nil {
			return errStr("double start accepted")
		}
		p.Compute(0.01, 0)
		if _, err := s.StopMonitoring(); err != nil {
			return err
		}
		return nil
	})
	// Note: the double-start check happens after the first Start's world
	// barrier, so all ranks take the same path and no deadlock occurs.
	if err != nil {
		t.Fatal(err)
	}
}

func TestMonitoringAddsSynchronizationOverhead(t *testing.T) {
	// The paper accepts "a slight overhead compromise due to
	// synchronization". Compare makespans of the same imbalanced workload
	// with and without the framework.
	work := func(p *mpi.Proc) {
		p.Compute(0.001*float64(p.Rank()%48+1), 0)
	}
	plain := newClusterWorld(t)
	if err := plain.Run(func(p *mpi.Proc) error {
		work(p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	monitored := newClusterWorld(t)
	if err := monitored.Run(func(p *mpi.Proc) error {
		s, err := Setup(p, p.World())
		if err != nil {
			return err
		}
		if err := s.StartMonitoring(); err != nil {
			return err
		}
		work(p)
		_, err = s.StopMonitoring()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if monitored.MaxClock() <= plain.MaxClock() {
		t.Fatalf("monitored %.6fs not above plain %.6fs", monitored.MaxClock(), plain.MaxClock())
	}
	// But the overhead must stay slight: well under 1% for this workload.
	if over := monitored.MaxClock()/plain.MaxClock() - 1; over > 0.01 {
		t.Fatalf("monitoring overhead %.2f%% too large", over*100)
	}
}

func TestWriteNodeReport(t *testing.T) {
	dir := t.TempDir()
	r := &NodeReport{
		Node:       3,
		ElapsedS:   1.5,
		Events:     papi.DefaultEventNames(),
		Microjoule: []int64{1000000, 900000, 200000, 150000},
	}
	path, err := WriteNodeReport(dir, r)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "node0003_energy.txt" {
		t.Fatalf("file name %q", filepath.Base(path))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"node: 3",
		"elapsed_s: 1.5",
		"powercap:::PACKAGE_ENERGY:PACKAGE0_uJ: 1000000",
		"total_J: 2.25",
		"avg_power_W: 1.5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
	if _, err := WriteNodeReport(dir, nil); err == nil {
		t.Fatal("nil report accepted")
	}
}

func TestWriteRunSummary(t *testing.T) {
	dir := t.TempDir()
	sum := RunSummary{
		Nodes:     2,
		DurationS: 1.25,
		TotalJ:    400,
		ByEvent: map[string]float64{
			"powercap:::PACKAGE_ENERGY:PACKAGE0": 250,
			"powercap:::DRAM_ENERGY:PACKAGE0":    150,
		},
	}
	path, err := WriteRunSummary(dir, sum)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"nodes: 2",
		"duration_s: 1.25",
		"total_J: 400",
		"avg_power_W: 320",
		"powercap:::DRAM_ENERGY:PACKAGE0_J: 150",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("summary missing %q:\n%s", want, text)
		}
	}
}

func TestCollectReportsNonRootGetsNil(t *testing.T) {
	w := newClusterWorld(t)
	err := w.Run(func(p *mpi.Proc) error {
		s, err := Setup(p, p.World())
		if err != nil {
			return err
		}
		if err := s.StartMonitoring(); err != nil {
			return err
		}
		p.Compute(0.1, 0)
		rep, err := s.StopMonitoring()
		if err != nil {
			return err
		}
		all, err := CollectReports(p, p.World(), rep)
		if err != nil {
			return err
		}
		if p.Rank() != 0 && all != nil {
			return errStr("non-root received reports")
		}
		if p.Rank() == 0 && len(all) != 2 {
			return errStr("root did not get both reports")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

type errStr string

func (e errStr) Error() string { return string(e) }

// startSkewJoules measures a half-second compute phase on one two-rank
// node whose monitoring rank (rank 1) reaches StartMonitoring a virtual
// second after rank 0, so rank 0 owes a second of busy-wait at the node
// barrier's release time — energy spent before the monitored phase. The
// rank named lastOnHost enters the barrier last in host time, once the
// other is parked inside it.
func startSkewJoules(t *testing.T, lastOnHost int) float64 {
	t.Helper()
	spec := *cluster.MarconiA3()
	spec.CoresPerSocket = 1 // two ranks fill a node
	cfg, err := cluster.NewConfig(2, cluster.FullLoad, &spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(2, mpi.Options{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	entering := make(chan struct{})
	var joules float64
	err = w.Run(func(p *mpi.Proc) error {
		s, err := Setup(p, p.World())
		if err != nil {
			return err
		}
		if p.Rank() == 1 {
			p.Compute(1, 0)
		}
		if p.Rank() == lastOnHost {
			<-entering
			time.Sleep(20 * time.Millisecond) // let the other rank park in the barrier
		} else {
			close(entering)
		}
		if err := s.StartMonitoring(); err != nil {
			return err
		}
		p.Compute(0.5, 1e6)
		rep, err := s.StopMonitoring()
		if rep != nil {
			joules = rep.TotalJoules()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return joules
}

// TestReadingIsAFunctionOfVirtualTime pins the counter-read semantics: a
// reading at virtual time t holds exactly the energy charged up to t,
// whichever rank's goroutine the host ran first. Without the fence in
// alignNode the monitoring rank, when it arrives last and releases the
// barrier, reads its baseline before rank 0 has charged the wait it owes,
// and that second of busy-wait is billed to the monitored phase.
func TestReadingIsAFunctionOfVirtualTime(t *testing.T) {
	peerLast, monitorLast := startSkewJoules(t, 0), startSkewJoules(t, 1)
	if peerLast != monitorLast {
		t.Fatalf("the same virtual run measured %g J with rank 0 entering the start barrier last on the host and %g J with the monitoring rank last",
			peerLast, monitorLast)
	}
}
