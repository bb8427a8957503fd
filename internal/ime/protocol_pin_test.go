package ime

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mat"
	"repro/internal/mpi"
)

var updateProtocolPin = flag.Bool("update", false, "rewrite testdata/protocol_pin.txt")

// pinCase is one charged IMeP solve of TestProtocolPinned.
type pinCase struct {
	n, ranks int
	config   *cluster.Config // nil: every rank on one synthetic node
	opts     ParallelOptions
}

func (c pinCase) label() string {
	world := "single"
	if c.config != nil {
		world = "fullload"
	}
	return fmt.Sprintf("n=%d ranks=%d world=%s overlap=%v checksum_sets=%d",
		c.n, c.ranks, world, c.opts.Overlap, c.opts.ChecksumSets)
}

// run solves the case once, with or without tracing, and returns rank 0's
// solution and the world.
func (c pinCase) run(t *testing.T, trace bool) ([]float64, *mpi.World) {
	t.Helper()
	w, err := mpi.NewWorld(c.ranks, mpi.Options{Config: c.config})
	if err != nil {
		t.Fatal(err)
	}
	if trace {
		w.EnableTracing()
	}
	var mu sync.Mutex
	var x0 []float64
	sys := mat.CachedSystem(c.n, int64(c.n*31+c.ranks))
	err = w.Run(func(p *mpi.Proc) error {
		x, err := SolveParallel(p, p.World(), sys, c.opts)
		if err == nil && p.Rank() == 0 {
			mu.Lock()
			x0 = x
			mu.Unlock()
		}
		return err
	})
	if err != nil {
		t.Fatalf("%s: %v", c.label(), err)
	}
	return x0, w
}

// TestProtocolPinned pins every simulated output of both IMeP variants —
// synchronous and overlapped, with and without checksum rows — over
// uneven, one-row-per-rank, single-rank and multi-node shapes: the bits
// of the makespan, the traffic, an FNV-1a digest of the solution bits and
// one of the traced span sequence. Any refactor of the protocol must leave
// testdata/protocol_pin.txt untouched.
//
// Total energy is compared to 12 significant digits only: the charge
// ledgers land on a node in arrival order at each rank's body end, so its
// un-quantised sum moves in the last ulps between identical runs.
func TestProtocolPinned(t *testing.T) {
	full, err := cluster.NewConfig(96, cluster.FullLoad, cluster.MarconiA3())
	if err != nil {
		t.Fatal(err)
	}
	shapes := []pinCase{
		{n: 12, ranks: 2}, {n: 13, ranks: 4}, {n: 30, ranks: 5}, {n: 96, ranks: 8},
		{n: 9, ranks: 9}, {n: 20, ranks: 1}, {n: 96, ranks: 48},
		{n: 192, ranks: 96, config: &full},
	}
	var b strings.Builder
	for _, shape := range shapes {
		for _, overlap := range []bool{false, true} {
			for _, sets := range []int{0, 2} {
				c := shape
				c.opts = ParallelOptions{ChargeCosts: true, Overlap: overlap, ChecksumSets: sets}
				x, w := c.run(t, false)
				_, tw := c.run(t, true)
				msgs, bytes := w.Traffic()
				fmt.Fprintf(&b, "%s clock=%016x msgs=%d bytes=%d x=%016x spans=%016x energy=%.11e\n",
					c.label(), math.Float64bits(w.MaxClock()), msgs, bytes,
					floatsDigest(x), spansDigest(tw.Spans()), w.TotalEnergyJ())
			}
		}
	}
	const path = "testdata/protocol_pin.txt"
	if *updateProtocolPin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d golden lines, computed %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], wantLines[i])
		}
	}
}

// floatsDigest is FNV-1a over the little-endian Float64bits of xs.
func floatsDigest(xs []float64) uint64 {
	h := fnv.New64a()
	for _, v := range xs {
		writeU64(h, math.Float64bits(v))
	}
	return h.Sum64()
}

// spansDigest is FNV-1a over every field of every span, in World.Spans
// order, times as Float64bits.
func spansDigest(spans []mpi.Span) uint64 {
	h := fnv.New64a()
	for _, s := range spans {
		io.WriteString(h, s.Kind+"\x00"+s.Name+"\x00")
		for _, v := range [...]uint64{uint64(s.Rank), uint64(s.Peer), uint64(s.Tag), uint64(s.Level),
			math.Float64bits(s.Start), math.Float64bits(s.End), uint64(s.Bytes)} {
			writeU64(h, v)
		}
	}
	return h.Sum64()
}

func writeU64(w io.Writer, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.Write(buf[:])
}
