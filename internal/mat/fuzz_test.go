package mat

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadSystemText hardens the text parser: arbitrary input must either
// parse into a valid system or return an error — never panic, never
// produce an inconsistent System. (go test runs the seed corpus; go test
// -fuzz explores further.)
func FuzzReadSystemText(f *testing.F) {
	f.Add("2\n2 0 2\n0 2 4\n")
	f.Add("# comment\n1\n5 10\n")
	f.Add("")
	f.Add("abc")
	f.Add("3\n1 2 3\n")
	f.Add("1\nNaN Inf\n")
	f.Add("1\n1e309 0\n")
	f.Add("-5\n")
	f.Add("2\n1 2 3 4\n5 6 7 8\n9\n")
	f.Fuzz(func(t *testing.T, input string) {
		sys, err := ReadSystemText(strings.NewReader(input))
		if err != nil {
			return
		}
		if verr := sys.Validate(); verr != nil {
			t.Fatalf("parser returned inconsistent system: %v", verr)
		}
		// Round trip: what we parsed must serialise and re-parse equal.
		var buf bytes.Buffer
		if err := WriteSystemText(&buf, sys); err != nil {
			t.Fatalf("reserialise: %v", err)
		}
		again, err := ReadSystemText(&buf)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if again.N() != sys.N() {
			t.Fatalf("round trip changed order %d → %d", sys.N(), again.N())
		}
	})
}

// FuzzReadMatrixMarket hardens the MatrixMarket parser: any input parses
// or errors without panicking, and what parses writes back in coordinate
// form and re-reads to the same matrix.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n% c\n3 3 2\n1 1 2.5\n3 2 -1\n")
	f.Add("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n2 1 1\n2 1 7\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n3037000500 3037000500 0\n")
	f.Add("%%MatrixMarket matrix array real general\n1 1\nNaN\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		m, err := ReadMatrixMarket(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeMatrixMarket(&buf, m); err != nil {
			t.Fatalf("reserialise: %v", err)
		}
		again, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if again.Rows() != m.Rows() || again.Cols() != m.Cols() {
			t.Fatalf("round trip changed shape %d×%d → %d×%d", m.Rows(), m.Cols(), again.Rows(), again.Cols())
		}
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				if v, w := m.At(i, j), again.At(i, j); v != w && !(v != v && w != w) {
					t.Fatalf("round trip changed (%d,%d): %g → %g", i, j, v, w)
				}
			}
		}
	})
}

// FuzzReadSystemBinary hardens the binary parser the same way.
func FuzzReadSystemBinary(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteSystemBinary(&seed, NewRandomSystem(3, 1)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("LSYS"))
	f.Add([]byte("XXXX123456789"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		sys, err := ReadSystemBinary(bytes.NewReader(input))
		if err != nil {
			return
		}
		if verr := sys.Validate(); verr != nil {
			t.Fatalf("parser returned inconsistent system: %v", verr)
		}
	})
}
