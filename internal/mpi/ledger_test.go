package mpi

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rapl"
)

// ledgerWorld builds an 8-rank world over two 4-core nodes, so that every
// node is shared by ranks of both sockets.
func ledgerWorld(t *testing.T) *World {
	t.Helper()
	cfg, err := cluster.NewConfig(8, cluster.FullLoad, testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(8, Options{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTracingLandsTheSameCharges pins the landing rule's two paths to each
// other: untraced, a rank's charges land at synchronisation points; traced,
// each lands as it is made. Clocks and traffic must agree bit for bit and
// the total energy to rounding (only the order of the additions differs).
func TestTracingLandsTheSameCharges(t *testing.T) {
	run := func(traced bool) (clock, energy float64, msgs, vol int64) {
		w := ledgerWorld(t)
		if traced {
			w.EnableTracing()
		}
		err := w.Run(func(p *Proc) error {
			c, r, n := p.World(), p.Rank(), p.Size()
			p.SetActivity(1 + 0.1*float64(r))
			p.Compute(1e-3*float64(r+1), 4096*float64(r+1))
			if err := p.Send(c, (r+1)%n, 1, make([]float64, 16*(r+1))); err != nil {
				return err
			}
			got, err := p.Recv(c, (r+n-1)%n, 1)
			if err != nil {
				return err
			}
			p.Recycle(got)
			if err := p.Barrier(c); err != nil {
				return err
			}
			p.Compute(2e-4*float64(n-r), 1024)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		msgs, vol = w.Traffic()
		return w.MaxClock(), w.TotalEnergyJ(), msgs, vol
	}
	c0, e0, m0, v0 := run(false)
	c1, e1, m1, v1 := run(true)
	if math.Float64bits(c0) != math.Float64bits(c1) {
		t.Errorf("MaxClock untraced %.17g, traced %.17g", c0, c1)
	}
	if m0 != m1 || v0 != v1 {
		t.Errorf("traffic untraced (%d, %d), traced (%d, %d)", m0, v0, m1, v1)
	}
	if rel := math.Abs(e0-e1) / e1; rel > 1e-12 {
		t.Errorf("TotalEnergyJ untraced %.17g, traced %.17g (relative %.3g)", e0, e1, rel)
	}
}

// TestFenceLandsEveryCharge pins what a counter read behind a Fence sees:
// once every member of a node communicator has passed a Fence, and none
// charges afterwards, the node's clock is the latest member clock and its
// energy is final — what the node still reports after Run returns.
func TestFenceLandsEveryCharge(t *testing.T) {
	w := ledgerWorld(t)
	nodes := len(w.Nodes())
	clocks := make([]float64, w.size)
	read := make([]struct {
		now    float64
		joules [4]float64
	}, nodes)
	err := w.Run(func(p *Proc) error {
		nc, err := p.CommSplitTypeShared(p.World())
		if err != nil {
			return err
		}
		r := p.Rank()
		p.Compute(1e-3*float64(r%3+1), 512*float64(r+1))
		if err := p.Barrier(nc); err != nil {
			return err
		}
		p.Compute(1e-4*float64(r+1), 0)
		clocks[r] = p.Clock()
		if err := p.Fence(nc); err != nil {
			return err
		}
		if me, _ := nc.Rank(p); me == nc.Size()-1 {
			node, _ := p.Location()
			n := p.RaplNode()
			read[node].now = n.Now()
			for i, d := range rapl.Domains() {
				read[node].joules[i] = n.ExactEnergy(d)
			}
		}
		return p.Fence(nc)
	})
	if err != nil {
		t.Fatal(err)
	}
	latest := make([]float64, nodes)
	for r, c := range clocks {
		node := w.nodeOf(r)
		latest[node] = max(latest[node], c)
	}
	for i, n := range w.Nodes() {
		if read[i].now != latest[i] {
			t.Errorf("node %d: clock behind the fence %.17g, latest member clock %.17g", i, read[i].now, latest[i])
		}
		for j, d := range rapl.Domains() {
			if got, final := read[i].joules[j], n.ExactEnergy(d); got != final {
				t.Errorf("node %d %v: %.17g J behind the fence, %.17g J after Run", i, d, got, final)
			}
		}
	}
}
