package mpi

import (
	"errors"
	"fmt"
	"testing"
)

func TestReduceSum(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < size; root += 2 {
			w := newTestWorld(t, size)
			err := w.Run(func(p *Proc) error {
				got, err := p.ReduceSum(p.World(), root, []float64{1, float64(p.Rank())})
				if err != nil {
					return err
				}
				me, _ := p.World().Rank(p)
				if me != root {
					if got != nil {
						return errors.New("non-root received reduce result")
					}
					return nil
				}
				wantSum := float64(size * (size - 1) / 2)
				if got[0] != float64(size) || got[1] != wantSum {
					return fmt.Errorf("root got %v, want [%d %g]", got, size, wantSum)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("size %d root %d: %v", size, root, err)
			}
			msgs, _ := w.Traffic()
			if msgs != int64(size-1) {
				t.Fatalf("size %d: reduce used %d messages, want %d", size, msgs, size-1)
			}
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	const size = 6
	w := newTestWorld(t, size)
	err := w.Run(func(p *Proc) error {
		v := float64(p.Rank())
		mx, err := p.AllreduceMax(p.World(), []float64{v, -v})
		if err != nil {
			return err
		}
		if mx[0] != size-1 || mx[1] != 0 {
			return fmt.Errorf("max = %v", mx)
		}
		mn, err := p.AllreduceMin(p.World(), []float64{v, -v})
		if err != nil {
			return err
		}
		if mn[0] != 0 || mn[1] != -(size-1) {
			return fmt.Errorf("min = %v", mn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall(t *testing.T) {
	const size = 5
	w := newTestWorld(t, size)
	err := w.Run(func(p *Proc) error {
		// Rank r sends to rank d a chunk of d+1 copies of 10r+d.
		chunks := make([][]float64, size)
		for d := range chunks {
			chunk := make([]float64, d+1)
			for i := range chunk {
				chunk[i] = float64(10*p.Rank() + d)
			}
			chunks[d] = chunk
		}
		got, err := p.Alltoall(p.World(), chunks)
		if err != nil {
			return err
		}
		me := p.Rank()
		for s := 0; s < size; s++ {
			if len(got[s]) != me+1 {
				return fmt.Errorf("from %d: %d elements, want %d", s, len(got[s]), me+1)
			}
			if got[s][0] != float64(10*s+me) {
				return fmt.Errorf("from %d: %v", s, got[s])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs, _ := w.Traffic()
	if msgs != size*(size-1) {
		t.Fatalf("alltoall used %d messages, want %d", msgs, size*(size-1))
	}
}

func TestAlltoallValidation(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() != 0 {
			return nil
		}
		if _, err := p.Alltoall(p.World(), [][]float64{{1}}); err == nil {
			return errors.New("short chunk list accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSumValidation(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		c := p.World()
		if _, err := p.ReduceSum(c, 5, []float64{1}); err == nil {
			return errors.New("bad root accepted")
		}
		// Mismatched lengths between ranks.
		data := []float64{1}
		if p.Rank() == 1 {
			data = []float64{1, 2}
		}
		_, err := p.ReduceSum(c, 0, data)
		if p.Rank() == 0 && err == nil {
			return errors.New("length mismatch accepted at root")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
