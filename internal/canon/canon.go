// Package canon hand-writes and hand-reads the canonical JSON that store
// identities and result payloads are made of: byte for byte what
// encoding/json emits for the same struct, without reflection.
//
// encoding/json and the struct tags stay the specification. A type's
// AppendCanonical method spells its members out through an Object, and a
// test beside it holds the bytes against json.Marshal with every field
// set, so a field added without its line here fails a test instead of
// aliasing two experiments to one key. Whatever this package cannot
// reproduce exactly it refuses: the appender reports ok false (a string
// that needs escaping, a NaN) and the scanner reports failure (whitespace,
// an escape, a number that is not JSON), and the caller hands the value to
// encoding/json, which decides. Nothing here guesses.
package canon

import (
	"bytes"
	"math"
	"strconv"
)

// Object appends the members of one JSON object. The zero value is not
// usable; Begin opens one and End closes it.
type Object struct {
	b    []byte
	ok   bool
	more bool // a member is already written: the next one takes a comma
}

// Begin opens an object at the end of dst.
func Begin(dst []byte) Object { return Object{b: append(dst, '{'), ok: true} }

// End closes the object and returns the extended buffer; ok is false when
// a member could not be written exactly as encoding/json writes it.
func (o *Object) End() (dst []byte, ok bool) { return append(o.b, '}'), o.ok }

// key appends the member separator and name. Names are Go string
// literals at the call sites, plain ASCII by construction.
func (o *Object) key(name string) {
	if o.more {
		o.b = append(o.b, ',')
	}
	o.more = true
	o.b = append(o.b, '"')
	o.b = append(o.b, name...)
	o.b = append(o.b, '"', ':')
}

// Int appends an integer member.
func (o *Object) Int(name string, v int64) {
	o.key(name)
	o.b = strconv.AppendInt(o.b, v, 10)
}

// Bool appends a boolean member.
func (o *Object) Bool(name string, v bool) {
	o.key(name)
	o.b = strconv.AppendBool(o.b, v)
}

// Float appends a float64 member.
func (o *Object) Float(name string, v float64) {
	o.key(name)
	var ok bool
	o.b, ok = AppendFloat(o.b, v)
	o.ok = o.ok && ok
}

// String appends a string member.
func (o *Object) String(name, v string) {
	o.key(name)
	var ok bool
	o.b, ok = AppendString(o.b, v)
	o.ok = o.ok && ok
}

// Value appends a member whose value another appender writes — a nested
// type's AppendCanonical.
func (o *Object) Value(name string, appendValue func(dst []byte) ([]byte, bool)) {
	o.key(name)
	var ok bool
	o.b, ok = appendValue(o.b)
	o.ok = o.ok && ok
}

// Raw appends a member whose value is canonical JSON already rendered —
// a nested type's AppendCanonical output, kept for many objects.
func (o *Object) Raw(name string, v []byte) {
	o.key(name)
	o.b = append(o.b, v...)
}

// AppendFloat appends f the way encoding/json formats a float64: the
// shortest digits that round-trip, exponent form iff 0 < |f| < 1e-6 or
// |f| ≥ 1e21, and a one-digit exponent not padded to two. NaN and ±Inf
// have no JSON form: ok is false.
func AppendFloat(dst []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst, true
}

// AppendString appends s quoted when every byte of it is one encoding/json
// copies through unchanged; any other string — a quote, a backslash, the
// HTML-escaped <, > and &, a control byte, anything outside ASCII — is left
// to encoding/json: ok is false.
func AppendString(dst []byte, s string) (_ []byte, ok bool) {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
}

// plain marks the bytes that stand for themselves inside a JSON string on
// both the encoding and the decoding side: printable ASCII except the
// quote, the backslash and the three characters encoding/json HTML-escapes.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range []byte(`"\<>&`) {
		t[c] = false
	}
	return t
}()

// Scanner reads back exactly what Object writes: objects of "name":value
// members with no whitespace, strings with no escapes, numbers in JSON's
// grammar. It is not a JSON parser. On anything else it fails, for good —
// every later call reports failure — and the caller falls back to
// encoding/json, so what a Scanner does not accept is still decoded, or
// rejected, by the rules it always was.
type Scanner struct {
	b      []byte
	i      int
	failed bool
	first  bool // no member of the innermost open object has been read
}

// Scan returns a scanner over b.
func Scan(b []byte) Scanner { return Scanner{b: b} }

// eat consumes c if it is the next byte.
func (s *Scanner) eat(c byte) bool {
	if !s.failed && s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// expect consumes c or fails.
func (s *Scanner) expect(c byte) {
	if !s.eat(c) {
		s.failed = true
	}
}

// Open reads the opening brace of an object value.
func (s *Scanner) Open() {
	s.expect('{')
	s.first = true
}

// Member reads up to the next member's value and returns its name; ok is
// false once the object has closed, or the scan has failed. The name
// aliases the input.
func (s *Scanner) Member() (name []byte, ok bool) {
	if s.eat('}') {
		s.first = false // the enclosing object has read at least this one
		return nil, false
	}
	if !s.first {
		s.expect(',')
	}
	s.first = false
	name = s.String()
	s.expect(':')
	return name, !s.failed
}

// String reads a string value; the result aliases the input.
func (s *Scanner) String() []byte {
	s.expect('"')
	end := s.i
	for end < len(s.b) && plain[s.b[end]] {
		end++
	}
	str := s.b[s.i:end]
	s.i = end
	s.expect('"')
	if s.failed {
		return nil
	}
	return str
}

// digits consumes one or more decimal digits.
func (s *Scanner) digits() {
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	if s.i == start {
		s.failed = true
	}
}

// number consumes a literal of JSON's number grammar and returns it;
// integer reports that it has neither fraction nor exponent.
func (s *Scanner) number() (lit []byte, integer bool) {
	start := s.i
	s.eat('-')
	if !s.eat('0') { // a leading zero stands alone
		s.digits()
	}
	integer = true
	if s.eat('.') {
		integer = false
		s.digits()
	}
	if s.eat('e') || s.eat('E') {
		integer = false
		if !s.eat('+') {
			s.eat('-')
		}
		s.digits()
	}
	if s.failed {
		return nil, false
	}
	return s.b[start:s.i], integer
}

// Float reads a number value as a float64. A literal out of float64's
// range fails, as it does in encoding/json.
func (s *Scanner) Float() float64 {
	lit, _ := s.number()
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		s.failed = true
		return 0
	}
	return f
}

// SkipFloat reads a number value as Float does, failing exactly where it
// fails, without converting it where it need not: ParseFloat fails only
// on overflow, which a literal with no exponent and at most 308 bytes —
// less than 10³⁰⁸ — cannot reach.
func (s *Scanner) SkipFloat() {
	lit, _ := s.number()
	if s.failed || len(lit) <= 308 && bytes.IndexByte(lit, 'e') < 0 && bytes.IndexByte(lit, 'E') < 0 {
		return
	}
	if _, err := strconv.ParseFloat(string(lit), 64); err != nil {
		s.failed = true
	}
}

// Int reads a number value as an int; one written with a fraction or an
// exponent fails, as it does in encoding/json.
func (s *Scanner) Int() int {
	lit, integer := s.number()
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil || !integer {
		s.failed = true
		return 0
	}
	return int(n)
}

// maxDepth is how deeply Skip nests arrays and objects: encoding/json's
// own limit, so that nothing it rejects as too deep is accepted here.
const maxDepth = 10000

// Skip reads one value of any kind — object, array, string, number, true,
// false or null — in the subset the scanner reads, and returns it; the
// result aliases the input.
func (s *Scanner) Skip() []byte {
	start := s.i
	s.skip(0)
	if s.failed {
		return nil
	}
	return s.b[start:s.i]
}

// skip reads one value nested depth arrays and objects deep.
func (s *Scanner) skip(depth int) {
	if s.failed || s.i == len(s.b) {
		s.failed = true
		return
	}
	switch c := s.b[s.i]; {
	case c == '{' || c == '[':
		if depth == maxDepth {
			s.failed = true
			return
		}
		s.i++
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		if s.eat(end) {
			return
		}
		for !s.failed {
			if c == '{' {
				s.String()
				s.expect(':')
			}
			s.skip(depth + 1)
			if !s.eat(',') {
				s.expect(end)
				return
			}
		}
	case c == '"':
		s.String()
	case c == '-' || c >= '0' && c <= '9':
		s.number()
	default:
		for _, lit := range []string{"true", "false", "null"} {
			if bytes.HasPrefix(s.b[s.i:], []byte(lit)) {
				s.i += len(lit)
				return
			}
		}
		s.failed = true
	}
}

// Valid reports whether b is one JSON value that encoding/json compacts,
// HTML escaping on, to b itself: what json.Marshal writes for a
// json.RawMessage holding b. It holds for the subset the scanner reads —
// no whitespace, strings of plain bytes only — and for nothing else, so
// b need not be compacted or escaped before it is written as it is.
func Valid(b []byte) bool {
	s := Scan(b)
	s.Skip()
	return s.Done()
}

// Fail makes the scan fail: the caller met a member it does not know, or
// one it has already read.
func (s *Scanner) Fail() { s.failed = true }

// Done reports whether the scan read the whole input without failing.
func (s *Scanner) Done() bool { return !s.failed && s.i == len(s.b) }
