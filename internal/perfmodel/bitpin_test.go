package perfmodel

// Bit-exact pins of the two schedule replays. The goldens elsewhere
// (advisor golden, bench store.digest) reach only the overlapped
// inter-node paper grid; these rows hold math.Float64bits of what
// imeTime and scalapackTime return on the corners that grid leaves out
// — n < nb, n % nb ≠ 0, one rank, a prime rank count (Pr = 1, so no
// cross-row swaps), a non-square grid, shared-memory links, the
// synchronous schedule, a power-cap stretch, nb = 1 — so that a rewrite
// of either replay is checked as a rewrite: same operands, same order,
// same bits. A row that moves on purpose is a model change: bump
// ModelVersion and paste the row the failure prints.

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

type pinCase struct {
	n, ranks, nb   int
	intra, overlap bool
	stretch        float64
}

func (c pinCase) schedule(alg Algorithm) schedule {
	return schedule{alg: alg, n: c.n, ranks: c.ranks, intra: c.intra, capStretch: c.stretch,
		overlap: c.overlap, nb: c.nb}
}

// pinBits evaluates both replays at c. imeTime refuses ranks > n; its
// pair is then zero.
func pinBits(t *testing.T, c pinCase) (ime, ge [2]uint64) {
	t.Helper()
	tb, err := imeTime(c.schedule(IMe))
	if (err != nil) != (c.ranks > c.n) {
		t.Fatalf("imeTime %+v: error %v, want one exactly when ranks > n", c, err)
	}
	if err == nil {
		ime = [2]uint64{math.Float64bits(tb.compute), math.Float64bits(tb.exposedComm)}
	}
	tb, err = scalapackTime(c.schedule(ScaLAPACK))
	if err != nil {
		t.Fatalf("scalapackTime %+v: %v", c, err)
	}
	ge = [2]uint64{math.Float64bits(tb.compute), math.Float64bits(tb.exposedComm)}
	return ime, ge
}

func TestReplayBitsPinned(t *testing.T) {
	rows := []struct {
		name string
		pinCase
		ime, ge [2]uint64 // {compute, exposedComm}
	}{
		{"n<nb/overlap", pinCase{7, 4, 64, false, true, 1}, [2]uint64{0x3e540b0de42d4fad, 0x3f0c5343ce6e2265}, [2]uint64{0x3e6b6978a53df844, 0x3f1bf751d60600ef}},
		{"n<nb/sync", pinCase{7, 4, 64, false, false, 1}, [2]uint64{0x3e540b0de42d4fad, 0x3f1ee7dddb791e34}, [2]uint64{0x3e6b6978a53df844, 0x3f1bf8be7417ca8e}},
		{"n<nb/intra/overlap", pinCase{7, 4, 64, true, true, 1}, [2]uint64{0x3e540b0de42d4fad, 0x3ef2e9dc1bbec1e7}, [2]uint64{0x3e6b6978a53df844, 0x3f039d71c671efe2}},
		{"n<nb/intra/sync", pinCase{7, 4, 64, true, false, 1}, [2]uint64{0x3e540b0de42d4fad, 0x3f07250aa67722a2}, [2]uint64{0x3e6b6978a53df844, 0x3f03a081fc5536cf}},
		{"n=1/overlap", pinCase{1, 1, 64, true, true, 1}, [2]uint64{0x3df6e80fe033c8c6, 0x3e340b0de42d4fae}, [2]uint64{0x3e1e5142304489bc, 0x3e3f53f79846d296}},
		{"n=1/sync", pinCase{1, 1, 64, true, false, 1}, [2]uint64{0x3df6e80fe033c8c6, 0x0}, [2]uint64{0x3e1e5142304489bc, 0x0}},
		{"n%nb!=0/overlap", pinCase{1000, 16, 64, false, true, 1}, [2]uint64{0x3f8586876e1deacc, 0x3f67e54e02545ea1}, [2]uint64{0x3f7a8176fed5cf44, 0x3f9520e066702c57}},
		{"n%nb!=0/sync", pinCase{1000, 16, 64, false, false, 1}, [2]uint64{0x3f8586876e1deacc, 0x3fa2e415beae2618}, [2]uint64{0x3f7a8176fed5cf44, 0x3f98a6cb0207c737}},
		{"n%nb!=0/stretch/overlap", pinCase{1000, 16, 64, false, true, 1.37}, [2]uint64{0x3f8d7d6cbd429627, 0x3f61530f6d158d1b}, [2]uint64{0x3f82280b1ca4612e, 0x3f94d770dd099572}},
		{"n%nb!=0/stretch/sync", pinCase{1000, 16, 64, false, false, 1.37}, [2]uint64{0x3f8d7d6cbd429627, 0x3fa2e415beae2618}, [2]uint64{0x3f82280b1ca4612e, 0x3f98a6cb0207c737}},
		{"one-rank/overlap", pinCase{257, 1, 64, true, true, 1}, [2]uint64{0x3f674422d5d418ad, 0x3ea9ded6ee167c20}, [2]uint64{0x3f56905c04ba2584, 0x3ecc951bc0349da4}},
		{"one-rank/sync", pinCase{257, 1, 64, true, false, 1}, [2]uint64{0x3f674422d5d418ad, 0x0}, [2]uint64{0x3f56905c04ba2584, 0x0}},
		{"prime-ranks/overlap", pinCase{1000, 7, 64, false, true, 1}, [2]uint64{0x3f986e035a6f28f3, 0x3f47aee94284c04e}, [2]uint64{0x3f8e6ea5c7bba633, 0x3f41abf381c83b34}},
		{"prime-ranks/sync", pinCase{1000, 7, 64, false, false, 1}, [2]uint64{0x3f986e035a6f28f3, 0x3f9a5686f5522714}, [2]uint64{0x3f8e6ea5c7bba633, 0x3f5fb704ad718f61}},
		{"prime-ranks/intra/overlap", pinCase{1000, 7, 64, true, true, 1.37}, [2]uint64{0x3fa0bbffbcaadd57, 0x3f116d2287b2430b}, [2]uint64{0x3f94d897f59dfacc, 0x3f2835daa8a031c7}},
		{"prime-ranks/intra/sync", pinCase{1000, 7, 64, true, false, 1.37}, [2]uint64{0x3fa0bbffbcaadd57, 0x3f8d09ab7a6cada6}, [2]uint64{0x3f94d897f59dfacc, 0x3f5de95b34146ad2}},
		{"non-square-2x3/overlap", pinCase{1000, 6, 100, false, true, 1}, [2]uint64{0x3f9c87a33ea59ed0, 0x3f44569fdb0d6886}, [2]uint64{0x3f90abc5697f73d2, 0x3f859321db1befd0}},
		{"non-square-2x3/sync", pinCase{1000, 6, 100, false, false, 1}, [2]uint64{0x3f9c87a33ea59ed0, 0x3f99ce6c093d9663}, [2]uint64{0x3f90abc5697f73d2, 0x3f8bdc6f5725d6ae}},
		{"non-square-6x8/overlap", pinCase{8640, 48, 64, false, true, 1.37}, [2]uint64{0x40088c316f415efe, 0x3f5b6ae55d2eb2b8}, [2]uint64{0x3ff8cbd621eac0f5, 0x3fceda2ad951dd75}},
		{"non-square-6x8/sync", pinCase{8640, 48, 64, false, false, 1.37}, [2]uint64{0x40088c316f415efe, 0x3ff1921ca914471c}, [2]uint64{0x3ff8cbd621eac0f5, 0x3fd42555716df93b}},
		{"intra-24/overlap", pinCase{257, 24, 64, true, true, 1}, [2]uint64{0x3f1fddd213efb23c, 0x3f51bcd65f9d9f63}, [2]uint64{0x3f23bbafaa0d4042, 0x3f614c59730c0f56}},
		{"intra-24/sync", pinCase{257, 24, 64, true, false, 1}, [2]uint64{0x3f1fddd213efb23c, 0x3f785e28b2da3afc}, [2]uint64{0x3f23bbafaa0d4042, 0x3f622408174aef8b}},
		{"nb=1/overlap", pinCase{100, 4, 1, false, true, 1}, [2]uint64{0x3f06105452af4112, 0x3f40fd4c29dd825e}, [2]uint64{0x3ef861e9f3419f2b, 0x3f69a08361115b6c}},
		{"nb=1/sync", pinCase{100, 4, 1, false, false, 1}, [2]uint64{0x3f06105452af4112, 0x3f5886899c766dc6}, [2]uint64{0x3ef861e9f3419f2b, 0x3f69cdc6f2c32b76}},
		{"nb=1/intra/stretch/overlap", pinCase{100, 4, 1, true, true, 1.37}, [2]uint64{0x3f0e3a36151e2da2, 0x3f21754f7f0ae9af}, [2]uint64{0x3f00b3b6041211e5, 0x3f513d240d0fc812}},
		{"nb=1/intra/stretch/sync", pinCase{100, 4, 1, true, false, 1.37}, [2]uint64{0x3f0e3a36151e2da2, 0x3f437527ca4964cf}, [2]uint64{0x3f00b3b6041211e5, 0x3f51b9155fe39552}},
		{"ranks>n/overlap", pinCase{5, 16, 8, false, true, 1}, [2]uint64{0x0, 0x0}, [2]uint64{0x3e561b404331f9c3, 0x3f23ef63c27de3f0}},
		{"ranks>n/sync", pinCase{5, 16, 8, false, false, 1}, [2]uint64{0x0, 0x0}, [2]uint64{0x3e561b404331f9c3, 0x3f23f0e174bca4e9}},
		{"paper-8640-144/stretch/overlap", pinCase{8640, 144, 64, false, true, 1.37}, [2]uint64{0x3ff05d764a2b94a7, 0x3f821d7d84df241c}, [2]uint64{0x3fe177451fc082a8, 0x3fd45ab07398ec0c}},
		{"paper-8640-144/stretch/sync", pinCase{8640, 144, 64, false, false, 1.37}, [2]uint64{0x3ff05d764a2b94a7, 0x3ffc9490a3da42dc}, [2]uint64{0x3fe177451fc082a8, 0x3fd8b62c18da0dd4}},
		{"paper-17280-576/overlap", pinCase{17280, 576, 64, false, true, 1}, [2]uint64{0x3ff7e3a62d25d2f9, 0x3fa4579b4926777e}, [2]uint64{0x3fe9a0511138045d, 0x3fe9266ba513b26d}},
		{"paper-17280-576/sync", pinCase{17280, 576, 64, false, false, 1}, [2]uint64{0x3ff7e3a62d25d2f9, 0x402385e137120ff8}, [2]uint64{0x3fe9a0511138045d, 0x3fede93323b2a534}},
		{"paper-34560-1296/overlap", pinCase{34560, 1296, 64, false, true, 1}, [2]uint64{0x40157fecca432fa9, 0x3fab9ed1a30690fe}, [2]uint64{0x40061b4572fc5b72, 0x3ffdaa823a8378f9}},
		{"paper-34560-1296/sync", pinCase{34560, 1296, 64, false, false, 1}, [2]uint64{0x40157fecca432fa9, 0x40449d469e1f0f65}, [2]uint64{0x40061b4572fc5b72, 0x4001d725cca3be15}},
	}
	for _, r := range rows {
		ime, ge := pinBits(t, r.pinCase)
		if ime != r.ime || ge != r.ge {
			t.Errorf("%s moved; got row:\n{%q, pinCase{%d, %d, %d, %v, %v, %v}, [2]uint64{%#x, %#x}, [2]uint64{%#x, %#x}},",
				r.name, r.name, r.n, r.ranks, r.nb, r.intra, r.overlap, r.stretch, ime[0], ime[1], ge[0], ge[1])
		}
	}
}

// TestReplayBitsSweep folds the same bits over a cross product too wide
// to list: every order × rank count × block size × link × schedule ×
// stretch below, hashed in loop order.
func TestReplayBitsSweep(t *testing.T) {
	const want = uint64(0x21f95d06b42a23e2)
	h := fnv.New64a()
	for _, n := range []int{1, 2, 7, 63, 64, 65, 100, 257, 1000, 4321, 8640, 34560} {
		for _, ranks := range []int{1, 2, 6, 7, 16, 48, 144, 1296} {
			for _, nb := range []int{1, 8, 64, 100} {
				for _, intra := range []bool{false, true} {
					for _, overlap := range []bool{false, true} {
						for _, stretch := range []float64{1, 1.37} {
							ime, ge := pinBits(t, pinCase{n, ranks, nb, intra, overlap, stretch})
							fmt.Fprintf(h, "%x %x %x %x\n", ime[0], ime[1], ge[0], ge[1])
						}
					}
				}
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("sweep digest = %#x, want %#x", got, want)
	}
}
