package canon

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestAppendFloatMatchesEncodingJSON holds the float rule against its
// specification on the corners that decide the format — the 1e-6 and 1e21
// cutoffs, the exponent clean-up, signed zero, the subnormal and the
// largest float, integers past 2⁵³ — and on random bit patterns.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	corners := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 66, 3.4, 150, 8e9, 5.5e-10, 4e-7, 2.2e-6, 2.5e-7,
		1e-6, 9.99e-7, math.Nextafter(1e-6, 0), 1e-7, 1.5e-7, 1e-10, 1.234e-100,
		1e21, 9.99e20, math.Nextafter(1e21, 0), 1e22, 1e100, -1e21, -9.99e-7,
		5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		1 << 53, 1<<53 + 2, 1 << 62, 1e15, 123456789012345680000, 0.000001234567890123456,
		0.7845198814117673, 3.8675859465793887e-16,
	}
	rng := rand.New(rand.NewSource(1))
	for len(corners) < 20000 {
		f := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			corners = append(corners, f)
		}
	}
	for _, f := range corners {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := AppendFloat([]byte("x"), f)
		if !ok || string(got) != "x"+string(want) {
			t.Errorf("AppendFloat(%b) = %q ok=%v, encoding/json writes %q", f, got, ok, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, ok := AppendFloat(nil, f); ok {
			t.Errorf("AppendFloat(%v) = %q, want it declined: JSON has no such number", f, got)
		}
	}
}

// TestAppendStringMatchesOrDeclines: a string is either written exactly as
// encoding/json writes it, or declined. The declined ones are every string
// encoding/json would escape or repair.
func TestAppendStringMatchesOrDeclines(t *testing.T) {
	written := []string{"", "analytic", "half-load-2-sockets", "PACKAGE_ENERGY:PACKAGE0", "hockney-logp/v1", "a b~{}[]:,'"}
	for _, s := range written {
		want, _ := json.Marshal(s)
		got, ok := AppendString(nil, s)
		if !ok || string(got) != string(want) {
			t.Errorf("AppendString(%q) = %q ok=%v, encoding/json writes %q", s, got, ok, want)
		}
	}
	declined := []string{"a<b", "a>b", "a&b", `say "hi"`, `back\slash`, "tab\there", "nul\x00", "del\x7f", "é", "line\u2028sep", "bad\xffutf8"}
	for _, s := range declined {
		if got, ok := AppendString(nil, s); ok {
			t.Errorf("AppendString(%q) = %q, want it declined", s, got)
		}
	}
	// Every single byte: written means identical to encoding/json.
	for c := 0; c < 256; c++ {
		s := string([]byte{byte(c)})
		want, _ := json.Marshal(s)
		if got, ok := AppendString(nil, s); ok && string(got) != string(want) {
			t.Errorf("AppendString(%q) = %q, encoding/json writes %q", s, got, want)
		}
	}
}

// TestObjectMatchesEncodingJSON: members, separators and nesting.
func TestObjectMatchesEncodingJSON(t *testing.T) {
	type inner struct {
		X float64
		Y bool
	}
	type outer struct {
		A int64   `json:"a"`
		B string  `json:"b"`
		C inner   `json:"c"`
		D float64 `json:"d"`
	}
	v := outer{A: -7, B: "bee", C: inner{X: 2.5e-7, Y: true}, D: 1e21}
	want, _ := json.Marshal(v)
	o := Begin(nil)
	o.Int("a", v.A)
	o.String("b", v.B)
	o.Value("c", func(dst []byte) ([]byte, bool) {
		in := Begin(dst)
		in.Float("X", v.C.X)
		in.Bool("Y", v.C.Y)
		return in.End()
	})
	o.Float("d", v.D)
	got, ok := o.End()
	if !ok || string(got) != string(want) {
		t.Fatalf("Object wrote %q ok=%v, encoding/json writes %q", got, ok, want)
	}
	if empty, ok := func() ([]byte, bool) { o := Begin(nil); return o.End() }(); !ok || string(empty) != "{}" {
		t.Errorf("empty object = %q ok=%v", empty, ok)
	}

	// One member that cannot be written poisons the object, wherever it is.
	o = Begin(nil)
	o.Float("a", 1)
	o.Value("b", func(dst []byte) ([]byte, bool) {
		in := Begin(dst)
		in.String("s", "a<b")
		return in.End()
	})
	o.Float("c", 2)
	if got, ok := o.End(); ok {
		t.Errorf("object with an undeclinable member = %q, want ok false", got)
	}
}

// TestScannerNumbers: a literal is read iff it is in JSON's number grammar
// (and an Int iff it is an integer literal), to the value encoding/json
// reads.
func TestScannerNumbers(t *testing.T) {
	for _, lit := range []string{
		"0", "-0", "1", "-1", "10", "0.5", "-0.5", "1e5", "1E5", "1e+5", "1e-5", "1.5e-7", "0.0000022",
		"8000000000", "5e-324", "1.7976931348623157e+308", "9007199254740993", "123456789012345680000",
		"+1", "01", "1.", ".5", "1e", "1e+", "-", "0x1p-2", "1_0", "Inf", "NaN", "1e999", "--1", "1.5.5", "",
	} {
		var want float64
		wantOK := json.Unmarshal([]byte(lit), &want) == nil
		s := Scan([]byte(lit))
		got := s.Float()
		if ok := s.Done(); ok != wantOK || ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Float(%q) = %v ok=%v, encoding/json reads %v ok=%v", lit, got, ok, want, wantOK)
		}
		var wantInt int
		wantOK = json.Unmarshal([]byte(lit), &wantInt) == nil
		s = Scan([]byte(lit))
		gotInt := s.Int()
		if ok := s.Done(); ok != wantOK || ok && gotInt != wantInt {
			t.Errorf("Int(%q) = %v ok=%v, encoding/json reads %v ok=%v", lit, gotInt, ok, wantInt, wantOK)
		}
	}
	for _, lit := range []string{"9223372036854775807", "-9223372036854775808", "9223372036854775808"} {
		var want int
		wantOK := json.Unmarshal([]byte(lit), &want) == nil
		s := Scan([]byte(lit))
		got := s.Int()
		if ok := s.Done(); ok != wantOK || ok && got != want {
			t.Errorf("Int(%q) = %v ok=%v, encoding/json reads %v ok=%v", lit, got, ok, want, wantOK)
		}
	}
}

// TestScannerObjects: the object grammar Object writes, nothing wider.
func TestScannerObjects(t *testing.T) {
	// read returns the members of a flat-or-nested object of numbers as
	// name=value pairs, nested objects in parentheses.
	var read func(s *Scanner) string
	read = func(s *Scanner) string {
		out := ""
		s.Open()
		for name, more := s.Member(); more; name, more = s.Member() {
			out += string(name) + "="
			if s.i < len(s.b) && s.b[s.i] == '{' {
				out += "(" + read(s) + ")"
			} else if s.i < len(s.b) && s.b[s.i] == '"' {
				out += string(s.String())
			} else {
				out += strconv.Itoa(s.Int())
			}
			out += ";"
		}
		return out
	}
	accepted := map[string]string{
		`{}`:                            "",
		`{"a":1}`:                       "a=1;",
		`{"a":1,"b":2}`:                 "a=1;b=2;",
		`{"a":{},"b":2}`:                "a=();b=2;",
		`{"a":{"x":1,"y":2},"b":"s"}`:   "a=(x=1;y=2;);b=s;",
		`{"a":{"x":{"deep":3}},"b":-4}`: "a=(x=(deep=3;););b=-4;",
		`{"b":{"x":1}}`:                 "b=(x=1;);",
	}
	for in, want := range accepted {
		s := Scan([]byte(in))
		if got := read(&s); !s.Done() || got != want {
			t.Errorf("scan %s = %q done=%v, want %q", in, got, s.Done(), want)
		}
	}
	for _, in := range []string{
		``, `{`, `}`, `{"a":1`, `{"a":1,}`, `{,"a":1}`, `{"a":1 }`, `{ "a":1}`, `{"a": 1}`, `{"a" :1}`, `{"a":1}x`, `{"a":1}` + "\n",
		`{"a":1,,"b":2}`, `{"a":1"b":2}`, `{"a"}`, `{"a":}`, `{a:1}`, "{\"\\u0061\":1}", `{"a\"":1}`, `{"a":{}`, `{"a":{"x":1,}}`,
		`{"a":"s\n"}`, `{"a":"é"}`, `{"a":"<"}`, `[1]`, `null`, `{"a":null}`, `{"a":true}`,
	} {
		s := Scan([]byte(in))
		if got := read(&s); s.Done() {
			t.Errorf("scan %q was accepted as %q, want it declined", in, got)
		}
	}
}
