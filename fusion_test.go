package repro_test

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
)

// noFusePackages are the packages whose simulated numbers must not depend
// on the architecture: every product that feeds a sum is rounded on its
// own (an explicit float64(…) conversion, which the Go spec says forbids
// fusion), so arm64 computes the bits amd64 does.
var noFusePackages = []string{
	"internal/power", "internal/rapl", "internal/sparse",
	"internal/mat", "internal/fault", "internal/papi", "internal/mpi",
	"internal/sched", "internal/ckpt",
}

// fusedOp matches arm64's fused multiply-add instructions in the
// compiler's assembly listing.
var fusedOp = regexp.MustCompile(`\tF(N?)M(ADD|SUB)[DS]\t`)

// TestNoFusedMultiplyAdd cross-compiles each of noFusePackages for arm64
// with the compiler's assembly listing and fails on any fused
// multiply-add in it, code inlined from other packages included. amd64
// fuses nothing the source does not ask for, so a fused instruction on
// arm64 is a place where an arm64 host would compute other bits than
// every golden, fingerprint and stored payload holds. The listing comes
// from the build cache when the package is unchanged; a cold build takes
// about ten seconds.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles for arm64")
	}
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	for _, pkg := range noFusePackages {
		cmd := exec.Command(gobin, "build", "-gcflags=repro/"+pkg+"=-S", "./"+pkg)
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("arm64 build of %s: %v\n%s", pkg, err, out)
		}
		fused := 0
		for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
			if fusedOp.MatchString(sc.Text()) {
				if fused++; fused <= 20 {
					t.Errorf("%s: fused multiply-add on arm64: %s", pkg, sc.Text())
				}
			}
		}
		if fused > 20 {
			t.Errorf("%s: %d fused multiply-adds on arm64 in all", pkg, fused)
		}
	}
}
