package mat

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// The system file formats. The paper loads input systems from file "to
// ensure consistent input data for repetitive measurements"; we provide a
// human-readable text format and a compact binary one.
//
// Text format:
//
//	# optional comment lines
//	n
//	a11 a12 ... a1n b1
//	...
//	an1 an2 ... ann bn
//
// Binary format: magic "LSYS", uint32 version, uint64 n, then n*n float64
// (row-major A) and n float64 (b), all little-endian.

const (
	binaryMagic   = "LSYS"
	binaryVersion = 1
)

// maxFileElements bounds the matrix entries a system or MatrixMarket file
// may declare: 2^24 float64 values (128 MiB, order 4096). The declared
// size is checked before anything is allocated, because the header of a
// hostile file is all a reader has seen at that point.
const maxFileElements = 1 << 24

// checkFileShape rejects a declared rows×cols shape that is empty or holds
// more than maxFileElements entries, without forming the product that
// could overflow.
func checkFileShape(rows, cols uint64) error {
	if rows == 0 || cols == 0 || rows > maxFileElements/cols {
		return fmt.Errorf("mat: %d×%d matrix exceeds the %d-entry file limit", rows, cols, maxFileElements)
	}
	return nil
}

// WriteSystemText writes s in the text format.
func WriteSystemText(w io.Writer, s *System) error {
	if err := s.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	n := s.N()
	fmt.Fprintf(bw, "# linear system A·x = b, order %d\n%d\n", n, n)
	for i := 0; i < n; i++ {
		row := s.A.Row(i)
		for _, v := range row {
			fmt.Fprintf(bw, "%.17g ", v)
		}
		fmt.Fprintf(bw, "%.17g\n", s.B[i])
	}
	return bw.Flush()
}

// ReadSystemText parses the text format.
func ReadSystemText(r io.Reader) (*System, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	line, err := nextDataLine(sc)
	if err != nil {
		return nil, fmt.Errorf("mat: reading order: %w", err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(line))
	if err != nil || n <= 0 {
		return nil, fmt.Errorf("mat: bad order line %q", line)
	}
	if err := checkFileShape(uint64(n), uint64(n)); err != nil {
		return nil, err
	}
	a := New(n, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		line, err := nextDataLine(sc)
		if err != nil {
			return nil, fmt.Errorf("mat: reading row %d: %w", i, err)
		}
		fields := strings.Fields(line)
		if len(fields) != n+1 {
			return nil, fmt.Errorf("mat: row %d has %d fields, want %d", i, len(fields), n+1)
		}
		row := a.Row(i)
		for j := 0; j < n; j++ {
			v, err := strconv.ParseFloat(fields[j], 64)
			if err != nil {
				return nil, fmt.Errorf("mat: row %d col %d: %w", i, j, err)
			}
			row[j] = v
		}
		bv, err := strconv.ParseFloat(fields[n], 64)
		if err != nil {
			return nil, fmt.Errorf("mat: row %d rhs: %w", i, err)
		}
		b[i] = bv
	}
	return &System{A: a, B: b}, nil
}

func nextDataLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

// WriteSystemBinary writes s in the binary format.
func WriteSystemBinary(w io.Writer, s *System) error {
	if err := s.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(binaryVersion)); err != nil {
		return err
	}
	n := s.N()
	if err := binary.Write(bw, binary.LittleEndian, uint64(n)); err != nil {
		return err
	}
	buf := make([]byte, 8)
	writeF := func(v float64) error {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		_, err := bw.Write(buf)
		return err
	}
	for i := 0; i < n; i++ {
		for _, v := range s.A.Row(i) {
			if err := writeF(v); err != nil {
				return err
			}
		}
	}
	for _, v := range s.B {
		if err := writeF(v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSystemBinary parses the binary format.
func ReadSystemBinary(r io.Reader) (*System, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("mat: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("mat: bad magic %q", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("mat: unsupported version %d", version)
	}
	var n64 uint64
	if err := binary.Read(br, binary.LittleEndian, &n64); err != nil {
		return nil, err
	}
	if err := checkFileShape(n64, n64); err != nil {
		return nil, err
	}
	n := int(n64)
	a := New(n, n)
	b := make([]float64, n)
	buf := make([]byte, 8)
	readF := func() (float64, error) {
		if _, err := io.ReadFull(br, buf); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(buf)), nil
	}
	for i := 0; i < n; i++ {
		row := a.Row(i)
		for j := range row {
			v, err := readF()
			if err != nil {
				return nil, fmt.Errorf("mat: reading A(%d,%d): %w", i, j, err)
			}
			row[j] = v
		}
	}
	for i := range b {
		v, err := readF()
		if err != nil {
			return nil, fmt.Errorf("mat: reading b(%d): %w", i, err)
		}
		b[i] = v
	}
	return &System{A: a, B: b}, nil
}

// SaveSystem writes s to path, choosing binary when the name ends in .bin,
// text otherwise.
func SaveSystem(path string, s *System) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		if err := WriteSystemBinary(f, s); err != nil {
			return err
		}
	} else if err := WriteSystemText(f, s); err != nil {
		return err
	}
	return f.Close()
}

// LoadSystem reads a system from path, sniffing binary vs. text by magic.
func LoadSystem(path string) (*System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, err := br.Peek(4)
	if err == nil && string(head) == binaryMagic {
		return ReadSystemBinary(br)
	}
	return ReadSystemText(br)
}
