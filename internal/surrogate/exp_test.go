package surrogate

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// expInputs is a seeded sample over the whole finite range of exp, the
// denormal tail included, plus the edge cases the assembly branches on.
func expInputs() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1, -1, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		7.09782712893384e+02, math.Nextafter(7.09782712893384e+02, 800), 1e300, // overflow
		-708.39, -708.4, -745.13, -745.14, -800, -1e300, // denormal and underflow
	}
	rng := rand.New(rand.NewSource(1))
	for range 200_000 {
		xs = append(xs, -760+1480*rng.Float64())
	}
	return xs
}

// TestExpDigestPinned pins the bits of exp over expInputs, so they are
// the same on every CPU and cannot move unnoticed.
func TestExpDigestPinned(t *testing.T) {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range expInputs() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(exp(x)))
		h.Write(b[:])
	}
	const want uint64 = 0x8b44ff7122ea5183
	if got := h.Sum64(); got != want {
		t.Errorf("exp digest %#x, want %#x", got, want)
	}
}

// TestExpIsMathExpOnFMA compares exp with math.Exp bit for bit when the
// latter takes its FMA branch. expProbe is an input where the two branches
// of the amd64 math.Exp differ in the last bit.
func TestExpIsMathExpOnFMA(t *testing.T) {
	const (
		expProbe  uint64 = 0x3fd470a3e652d000 // 0.31937501423385584
		fmaBranch uint64 = 0x3ff60530e92283b1
		sseBranch uint64 = 0x3ff60530e92283b0
	)
	probe := math.Float64frombits(expProbe)
	if got := math.Float64bits(exp(probe)); got != fmaBranch {
		t.Fatalf("exp(%v) = %#x, want the FMA branch's %#x", probe, got, fmaBranch)
	}
	switch got := math.Float64bits(math.Exp(probe)); got {
	case fmaBranch:
	case sseBranch:
		t.Skip("math.Exp takes a non-FMA path here: nothing to compare against")
	default:
		t.Skipf("math.Exp(%v) = %#x is neither amd64 branch: this math library has another method", probe, got)
	}
	for _, x := range expInputs() {
		if got, want := exp(x), math.Exp(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("exp(%v) = %#x, math.Exp = %#x", x, math.Float64bits(got), math.Float64bits(want))
		}
	}
}
