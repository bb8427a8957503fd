package mat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MatrixMarket interchange support: the NIST coordinate and array formats
// most sparse/dense matrix collections ship in, so inputs produced by
// other toolchains can drive the solvers directly.
//
// Supported headers:
//
//	%%MatrixMarket matrix coordinate real general
//	%%MatrixMarket matrix array real general
//
// Coordinate entries are 1-based (i j value); the array format stores
// column-major values.

// nextMMLine returns the next non-empty, non-comment line (MatrixMarket
// comments start with %).
func nextMMLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

// ReadMatrixMarket parses the coordinate or array real general formats
// into a dense matrix.
func ReadMatrixMarket(r io.Reader) (*Dense, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	if !sc.Scan() {
		return nil, fmt.Errorf("mat: empty MatrixMarket input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("mat: bad MatrixMarket header %q", sc.Text())
	}
	layout, valType, symmetry := header[2], header[3], header[4]
	if valType != "real" && valType != "integer" {
		return nil, fmt.Errorf("mat: unsupported MatrixMarket value type %q", valType)
	}
	if symmetry != "general" {
		return nil, fmt.Errorf("mat: unsupported MatrixMarket symmetry %q", symmetry)
	}

	sizeLine, err := nextMMLine(sc)
	if err != nil {
		return nil, fmt.Errorf("mat: reading size line: %w", err)
	}
	sizes := strings.Fields(sizeLine)

	switch layout {
	case "coordinate":
		if len(sizes) != 3 {
			return nil, fmt.Errorf("mat: coordinate size line %q", sizeLine)
		}
		rows, err1 := strconv.Atoi(sizes[0])
		cols, err2 := strconv.Atoi(sizes[1])
		nnz, err3 := strconv.Atoi(sizes[2])
		if err1 != nil || err2 != nil || err3 != nil || rows <= 0 || cols <= 0 || nnz < 0 {
			return nil, fmt.Errorf("mat: bad coordinate sizes %q", sizeLine)
		}
		if err := checkFileShape(uint64(rows), uint64(cols)); err != nil {
			return nil, err
		}
		m := New(rows, cols)
		for k := 0; k < nnz; k++ {
			line, err := nextMMLine(sc)
			if err != nil {
				return nil, fmt.Errorf("mat: entry %d: %w", k, err)
			}
			f := strings.Fields(line)
			if len(f) != 3 {
				return nil, fmt.Errorf("mat: entry %d has %d fields", k, len(f))
			}
			i, err1 := strconv.Atoi(f[0])
			j, err2 := strconv.Atoi(f[1])
			v, err3 := strconv.ParseFloat(f[2], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("mat: entry %d malformed: %q", k, line)
			}
			if i < 1 || i > rows || j < 1 || j > cols {
				return nil, fmt.Errorf("mat: entry %d index (%d,%d) outside %d×%d", k, i, j, rows, cols)
			}
			m.Set(i-1, j-1, v)
		}
		return m, nil
	case "array":
		if len(sizes) != 2 {
			return nil, fmt.Errorf("mat: array size line %q", sizeLine)
		}
		rows, err1 := strconv.Atoi(sizes[0])
		cols, err2 := strconv.Atoi(sizes[1])
		if err1 != nil || err2 != nil || rows <= 0 || cols <= 0 {
			return nil, fmt.Errorf("mat: bad array sizes %q", sizeLine)
		}
		if err := checkFileShape(uint64(rows), uint64(cols)); err != nil {
			return nil, err
		}
		m := New(rows, cols)
		// Column-major values.
		for j := 0; j < cols; j++ {
			for i := 0; i < rows; i++ {
				line, err := nextMMLine(sc)
				if err != nil {
					return nil, fmt.Errorf("mat: array value (%d,%d): %w", i, j, err)
				}
				v, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
				if err != nil {
					return nil, fmt.Errorf("mat: array value (%d,%d): %w", i, j, err)
				}
				m.Set(i, j, v)
			}
		}
		return m, nil
	default:
		return nil, fmt.Errorf("mat: unsupported MatrixMarket layout %q", layout)
	}
}
