// Package ckpt is the in-memory checkpoint store behind ScaLAPACK's
// checkpoint/restart resilience path. The paper's IMe reference [7] frames
// IMe's checksum recovery against "the checkpoint/restart technique
// usually applied in Gaussian Elimination"; this package supplies that
// baseline: per-rank panel snapshots grouped into generations, of which
// only complete ones (every rank present) are restartable — a crash
// mid-checkpoint must not leave a torn restart state. The virtual cost of
// writing and reading snapshots is charged through a bandwidth/latency
// cost model, so checkpoint overhead shows up in the energy accounting
// exactly like the paper's other costs.
package ckpt

import (
	"fmt"
	"sync"

	"repro/internal/scalapack"
)

// CostModel prices one snapshot write or read: a fixed per-operation
// latency plus the payload over the storage bandwidth. The defaults model
// a node-local burst buffer, fast enough that checkpointing is cheap but
// not free.
type CostModel struct {
	// BandwidthBps is the stable-storage bandwidth in bytes/second.
	BandwidthBps float64
	// LatencyS is the fixed per-snapshot latency in seconds.
	LatencyS float64
}

// DefaultCostModel returns burst-buffer-class storage: 2 GB/s per rank
// and 1 ms of per-snapshot latency.
func DefaultCostModel() CostModel {
	return CostModel{BandwidthBps: 2e9, LatencyS: 1e-3}
}

// Seconds returns the virtual time one rank spends moving a snapshot of
// the given size.
func (m CostModel) Seconds(bytes float64) float64 {
	s := m.LatencyS
	if m.BandwidthBps > 0 {
		s += bytes / m.BandwidthBps
	}
	return s
}

// Store holds the checkpoint generations of one job across its restart
// attempts. A generation is keyed by its resume column K0; it becomes
// restartable only once all ranks of one attempt have saved into it. Safe
// for concurrent use by world ranks.
type Store struct {
	mu   sync.Mutex
	size int
	gens map[int]map[int]scalapack.PanelSnapshot // K0 → rank → snapshot

	writes int
	bytes  float64
}

// NewStore builds a store for a world of size ranks.
func NewStore(size int) (*Store, error) {
	if size <= 0 {
		return nil, fmt.Errorf("ckpt: world size %d must be positive", size)
	}
	return &Store{size: size, gens: make(map[int]map[int]scalapack.PanelSnapshot)}, nil
}

// Save records one rank's snapshot into the generation its K0 names.
func (s *Store) Save(rank int, snap scalapack.PanelSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.gens[snap.K0]
	if g == nil {
		g = make(map[int]scalapack.PanelSnapshot, s.size)
		s.gens[snap.K0] = g
	}
	g[rank] = snap
	s.writes++
	s.bytes += snap.Bytes()
}

// latestCompleteLocked returns the highest K0 with all ranks present.
func (s *Store) latestCompleteLocked() (int, bool) {
	best, found := 0, false
	for k0, g := range s.gens {
		if len(g) == s.size && (!found || k0 > best) {
			best, found = k0, true
		}
	}
	return best, found
}

// Stats reports how many snapshot writes the store has absorbed and their
// total payload bytes — the raw material of the wasted-work accounting.
func (s *Store) Stats() (writes int, bytes float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes, s.bytes
}

// Plan begins one attempt of the job: it wires the store and a cost model
// into a solver checkpoint plan with the given period (in panel steps).
// What the attempt resumes from is settled here, once, for the whole
// world: generations the previous attempt left incomplete (a crash landed
// mid-checkpoint) are dropped, so the new attempt's saves can never
// complete one with another attempt's snapshots, and the newest complete
// generation is what Resume hands every rank, however late it asks and
// whatever has been saved since.
func (s *Store) Plan(every int, cost CostModel) *scalapack.CheckpointPlan {
	s.mu.Lock()
	for k0, g := range s.gens {
		if len(g) != s.size {
			delete(s.gens, k0)
		}
	}
	var resume map[int]scalapack.PanelSnapshot
	if k0, ok := s.latestCompleteLocked(); ok {
		resume = s.gens[k0]
	}
	s.mu.Unlock()
	return &scalapack.CheckpointPlan{
		Every: every,
		Cost:  func(bytes float64, _ bool) float64 { return cost.Seconds(bytes) },
		Save:  s.Save,
		Resume: func(rank int) (scalapack.PanelSnapshot, bool) {
			s.mu.Lock()
			defer s.mu.Unlock()
			snap, ok := resume[rank]
			return snap, ok
		},
	}
}
