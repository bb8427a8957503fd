package mpi

import (
	"fmt"
	"testing"
)

// TestAllgatherBruckTraffic pins the message accounting of the Bruck
// all-gather: every rank sends exactly one message per round, so the world
// total is size·TreeDepth(size) messages carrying size·(size−1)·per
// elements. The M_IMeP / V_IMeP validation suite depends on collective
// message counts staying put, so any change here must be deliberate.
func TestAllgatherBruckTraffic(t *testing.T) {
	for _, size := range []int{2, 3, 4, 6, 8, 9, 16} {
		for _, per := range []int{1, 3} {
			w := newTestWorld(t, size)
			err := w.Run(func(p *Proc) error {
				data := make([]float64, per)
				for i := range data {
					data[i] = float64(p.Rank()*per + i)
				}
				all, err := p.Allgather(p.World(), data)
				if err != nil {
					return err
				}
				for r := 0; r < size; r++ {
					for i := 0; i < per; i++ {
						if all[r][i] != float64(r*per+i) {
							return fmt.Errorf("rank %d sees %v from %d", p.Rank(), all[r], r)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("size %d per %d: %v", size, per, err)
			}
			msgs, vol := w.Traffic()
			wantMsgs := int64(size * TreeDepth(size))
			wantVol := int64(size * (size - 1) * per)
			if msgs != wantMsgs || vol != wantVol {
				t.Errorf("size %d per %d: traffic = %d msgs / %d elems, want %d/%d",
					size, per, msgs, vol, wantMsgs, wantVol)
			}
		}
	}
}

// TestAllgatherBruckUnequalContributions pins the equal-length requirement:
// Bruck forwards concatenated blocks, so ragged contributions must fail
// loudly rather than deliver torn payloads.
func TestAllgatherBruckUnequalContributions(t *testing.T) {
	w := newTestWorld(t, 4)
	err := w.Run(func(p *Proc) error {
		data := make([]float64, 1+p.Rank()%2)
		_, err := p.Allgather(p.World(), data)
		return err
	})
	if err == nil {
		t.Fatal("ragged allgather succeeded; want length-mismatch error")
	}
}

// TestCommSplitTrafficComposed pins that CommSplit still rides the
// composed gather+bcast exchange — 2(n−1) messages of 2 and 2n elements —
// because the monitored experiments' virtual times and energies are pinned
// against that shape (engine goldens in internal/core).
func TestCommSplitTrafficComposed(t *testing.T) {
	const size = 6
	w := newTestWorld(t, size)
	err := w.Run(func(p *Proc) error {
		sub, err := p.CommSplit(p.World(), p.Rank()%2, 0)
		if err != nil {
			return err
		}
		if sub.Size() != size/2 {
			return fmt.Errorf("split group size %d, want %d", sub.Size(), size/2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs, vol := w.Traffic()
	wantMsgs := int64(2 * (size - 1))
	wantVol := int64((size - 1) * 2 * (size + 1)) // (n−1)·2 gathered + (n−1)·2n broadcast
	if msgs != wantMsgs || vol != wantVol {
		t.Errorf("comm_split traffic = %d msgs / %d elems, want %d/%d", msgs, vol, wantMsgs, wantVol)
	}
}

// TestAllgatherBlocksSurviveMistakenRecycle pins the aliasing contract of
// Allgather's result: the blocks share one allocation and must not be
// recycled, but a caller that recycles one anyway (following the contract
// of every other collective) may only lose that block. Each rank recycles
// the block at the base of the shared buffer — which used to carry the
// whole buffer's capacity into the pool — then draws and scribbles over
// buffers of both the block's and the whole buffer's size class, and the
// other blocks must still read back intact.
func TestAllgatherBlocksSurviveMistakenRecycle(t *testing.T) {
	const size, per = 4, 4
	w := newTestWorld(t, size)
	err := w.Run(func(p *Proc) error {
		data := make([]float64, per)
		for i := range data {
			data[i] = float64(p.Rank()*per + i)
		}
		all, err := p.Allgather(p.World(), data)
		if err != nil {
			return err
		}
		for r, blk := range all {
			if len(blk) != per || cap(blk) != per {
				return fmt.Errorf("rank %d: block %d has len %d cap %d, want both %d", p.Rank(), r, len(blk), cap(blk), per)
			}
		}
		p.Recycle(all[p.Rank()])
		for _, n := range []int{per, size * per} {
			for k := 0; k < 2*size; k++ { // more draws than buffers any rank recycled
				buf := GetBuf(n)
				for i := range buf {
					buf[i] = -1
				}
			}
		}
		for r := 0; r < size; r++ {
			if r == p.Rank() {
				continue
			}
			for i := 0; i < per; i++ {
				if all[r][i] != float64(r*per+i) {
					return fmt.Errorf("rank %d: block %d overwritten after recycling block %d: %v", p.Rank(), r, p.Rank(), all[r])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
