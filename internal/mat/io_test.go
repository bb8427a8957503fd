package mat

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestTextRoundTrip(t *testing.T) {
	s := NewRandomSystem(9, 3)
	var buf bytes.Buffer
	if err := WriteSystemText(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSystemText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.A.EqualApprox(s.A, 0) {
		t.Fatal("matrix changed through text round trip")
	}
	for i := range s.B {
		if got.B[i] != s.B[i] {
			t.Fatalf("rhs[%d] changed: %v != %v", i, got.B[i], s.B[i])
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	s := NewRandomSystem(11, 5)
	// Poke in values that stress the encoding.
	s.A.Set(0, 1, math.Copysign(0, -1))
	s.A.Set(1, 0, math.SmallestNonzeroFloat64)
	s.B[0] = math.MaxFloat64
	var buf bytes.Buffer
	if err := WriteSystemBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSystemBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.A.EqualApprox(s.A, 0) {
		t.Fatal("matrix changed through binary round trip")
	}
	if got.B[0] != s.B[0] {
		t.Fatal("rhs changed through binary round trip")
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	s := NewRandomSystem(4, 1)
	var buf bytes.Buffer
	if err := WriteSystemBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, err := ReadSystemBinary(bytes.NewReader(raw[:len(raw)-4])); err == nil {
		t.Fatal("expected error on truncated payload")
	}
	bad := append([]byte("XXXX"), raw[4:]...)
	if _, err := ReadSystemBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("expected error on bad magic")
	}
}

func TestTextRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad order":    "abc\n",
		"zero order":   "0\n",
		"short row":    "2\n1 2 3\n",
		"bad element":  "1\nnope 1\n",
		"missing rows": "3\n1 0 0 1\n",
	}
	for name, in := range cases {
		if _, err := ReadSystemText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

// TestReadersRejectOversizedShapes feeds each reader a header declaring
// more entries than a matrix file may hold, before anything is allocated.
// 3037000500² overflows int64, so the check must not form the product;
// an order of 2^20 in the binary header would ask for 8 TiB.
func TestReadersRejectOversizedShapes(t *testing.T) {
	for name, in := range map[string]string{
		"coordinate": "%%MatrixMarket matrix coordinate real general\n3037000500 3037000500 0\n",
		"array":      "%%MatrixMarket matrix array real general\n3037000500 3037000500\n",
		"one row":    "%%MatrixMarket matrix coordinate real general\n1 16777217 0\n",
	} {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("MatrixMarket %s: accepted", name)
		}
	}
	if _, err := ReadSystemText(strings.NewReader("3037000500")); err == nil {
		t.Error("text order 3037000500 accepted")
	}
	var bin bytes.Buffer
	bin.WriteString(binaryMagic)
	binary.Write(&bin, binary.LittleEndian, uint32(binaryVersion))
	binary.Write(&bin, binary.LittleEndian, uint64(1<<20))
	if _, err := ReadSystemBinary(&bin); err == nil {
		t.Error("binary order 2^20 accepted")
	}
	for _, tc := range []struct {
		rows, cols uint64
		ok         bool
	}{
		{4096, 4096, true},
		{1, 1 << 24, true},
		{4097, 4096, false},
		{2, 1<<23 + 1, false},
		{1 << 32, 1 << 32, false}, // the product wraps to 0
		{0, 5, false},
	} {
		if err := checkFileShape(tc.rows, tc.cols); (err == nil) != tc.ok {
			t.Errorf("checkFileShape(%d, %d) = %v, want ok=%v", tc.rows, tc.cols, err, tc.ok)
		}
	}
}

func TestTextSkipsComments(t *testing.T) {
	in := "# header\n\n2\n# row comment\n2 0 2\n0 2 4\n"
	s, err := ReadSystemText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 2 || s.B[1] != 4 {
		t.Fatal("comment handling broke parsing")
	}
}

func TestSaveLoadSystemFiles(t *testing.T) {
	dir := t.TempDir()
	s := NewRandomSystem(6, 2)
	for _, name := range []string{"sys.txt", "sys.bin"} {
		path := filepath.Join(dir, name)
		if err := SaveSystem(path, s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadSystem(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.A.EqualApprox(s.A, 0) {
			t.Fatalf("%s: matrix not preserved", name)
		}
	}
	if _, err := LoadSystem(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestBinaryRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		n := int(abs64(seed)%6) + 1
		s := NewRandomSystem(n, seed)
		var buf bytes.Buffer
		if err := WriteSystemBinary(&buf, s); err != nil {
			return false
		}
		got, err := ReadSystemBinary(&buf)
		if err != nil {
			return false
		}
		if !got.A.EqualApprox(s.A, 0) {
			return false
		}
		for i := range s.B {
			if got.B[i] != s.B[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
