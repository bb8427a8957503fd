package mat

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

// writeMatrixMarket writes m in coordinate format, skipping zeros: the
// writer half of the round trips that check ReadMatrixMarket.
func writeMatrixMarket(w io.Writer, m *Dense) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	nnz := 0
	for i := 0; i < m.Rows(); i++ {
		for _, v := range m.Row(i) {
			if v != 0 {
				nnz++
			}
		}
	}
	fmt.Fprintf(bw, "%d %d %d\n", m.Rows(), m.Cols(), nnz)
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		for j, v := range row {
			if v != 0 {
				fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, v)
			}
		}
	}
	return bw.Flush()
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed%10+10) % 10
		if n < 2 {
			n = 2
		}
		m := NewDiagonallyDominant(n, seed)
		m.Set(0, 1, 0) // ensure at least one structural zero is skipped
		var buf bytes.Buffer
		if err := writeMatrixMarket(&buf, m); err != nil {
			return false
		}
		got, err := ReadMatrixMarket(&buf)
		if err != nil {
			return false
		}
		return got.equalApprox(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixMarketCoordinateParsing(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 2.5
2 2 -1
3 3 4
1 3 7
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 2.5 || m.At(1, 1) != -1 || m.At(0, 2) != 7 || m.At(1, 0) != 0 {
		t.Fatalf("parsed matrix wrong: %v", m)
	}
}

func TestMatrixMarketArrayParsing(t *testing.T) {
	// Column-major: [[1 3] [2 4]].
	in := `%%MatrixMarket matrix array real general
2 2
1
2
3
4
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 || m.At(1, 0) != 2 || m.At(0, 1) != 3 || m.At(1, 1) != 4 {
		t.Fatalf("array layout wrong: %v", m)
	}
}

func TestMatrixMarketRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"bad header":      "hello\n1 1 1\n",
		"symmetric":       "%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 1\n",
		"complex":         "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1\n",
		"bad layout":      "%%MatrixMarket matrix weird real general\n1 1\n1\n",
		"oob index":       "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5\n",
		"missing entries": "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 5\n",
		"bad value":       "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 x\n",
		"short array":     "%%MatrixMarket matrix array real general\n2 2\n1\n2\n",
	}
	for name, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
