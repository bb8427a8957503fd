package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/rapl"
	"repro/internal/store"
)

// The hand-written codecs (internal/canon) against their specification,
// encoding/json and the struct tags. This file holds every type that has
// an AppendCanonical — the identities of this package and the model half
// they embed from perfmodel, mpi, power and cluster — because this is
// where they compose into a store key.

// fillDistinct sets every field reachable from v, recursively, to a value
// that is non-zero and different from every other field's, so an appender
// that skips, swaps or aliases a field cannot produce json.Marshal's
// bytes. A field of a kind it does not know fails the test: whoever adds
// one extends both the appender and this.
func fillDistinct(t *testing.T, v reflect.Value, next *int) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), next)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *next))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for _, k := range []string{"b", "a", "c"} {
			*next++
			m.SetMapIndex(reflect.ValueOf(fmt.Sprintf("%s%d", k, *next)), reflect.ValueOf(float64(*next)+0.5))
		}
		v.Set(m)
	default:
		t.Fatalf("fillDistinct: no rule for a %s field (%s): give it one, and the appender a line", v.Kind(), v.Type())
	}
}

// canonicalTypes is one zero value of every store identity type with a
// hand-written appender. CellResult, whose energy_j is an array and not
// what encoding/json makes of it, has its own tests below.
func canonicalTypes() []store.Canonical {
	return []store.Canonical{
		CellIdentity{}, SparseCellIdentity{},
		perfmodel.CanonicalIdentity{},
		mpi.CostModel{}, power.Calibration{}, cluster.AcceleratorSpec{},
	}
}

// TestCanonicalMatchesEncodingJSONFieldByField is the drift guard: with
// every field set, the appended bytes are json.Marshal's. A field added to
// an identity, to Params, CostModel, Calibration or AcceleratorSpec
// without its line in the appender fails here instead of silently aliasing
// two experiments to one key.
func TestCanonicalMatchesEncodingJSONFieldByField(t *testing.T) {
	for _, zero := range canonicalTypes() {
		p := reflect.New(reflect.TypeOf(zero))
		next := 0
		fillDistinct(t, p.Elem(), &next)
		v := p.Elem().Interface().(store.Canonical)
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := v.AppendCanonical([]byte("prefix"))
		if !ok || string(got) != "prefix"+string(want) {
			t.Errorf("%T, every field set: appended\n %s (ok=%v)\nencoding/json writes\n %s", zero, bytes.TrimPrefix(got, []byte("prefix")), ok, want)
		}
		// The zero value: every omitempty member gone, nil pointers omitted.
		want, _ = json.Marshal(zero)
		if got, ok := zero.AppendCanonical(nil); ok && string(got) != string(want) {
			t.Errorf("%T, zero value: appended %s, encoding/json writes %s", zero, got, want)
		}
	}
}

// Shadow types without the methods: what encoding/json alone makes of the
// same fields and tags.
type (
	plainCellIdentity       CellIdentity
	plainSparseCellIdentity SparseCellIdentity
)

// TestCanonicalCorners walks the values where the rules have edges. For
// each, store.KeyFor over the hand codec gives exactly the key and bytes
// of the reflection path — or the same refusal.
func TestCanonicalCorners(t *testing.T) {
	negZero := math.Copysign(0, -1)
	model := func(edit func(*perfmodel.Params)) *perfmodel.CanonicalIdentity {
		prm := perfmodel.Params{}
		edit(&prm)
		id := prm.CanonicalIdentity()
		return &id
	}
	analytic := func(edit func(*perfmodel.Params)) CellIdentity {
		id := AnalyticCellIdentity(Experiment{Algorithm: perfmodel.IMe, N: 8640, Ranks: 144}, perfmodel.Params{})
		id.Model = model(edit)
		return id
	}
	sparseID := SparseAnalyticCellIdentity(SparseExperiment{N: 4096, Ranks: 144, Device: cluster.DeviceAccel, Band: 8, Cond: 100})
	floats := []float64{0, negZero, 1e-6, 9.99e-7, 1e21, 9.99e20, 5e-324, math.MaxFloat64, 1 << 53, 1<<53 + 2, 1e15, -2.5e-7, 0.1}

	type corner struct {
		name     string
		hand     any
		plain    any
		declined bool // the hand codec declines; encoding/json encodes
		refused  bool // no JSON form at all: KeyFor errs on both paths
	}
	var corners []corner
	add := func(name string, id any) {
		c := corner{name: name, hand: id}
		switch id := id.(type) {
		case CellIdentity:
			c.plain = plainCellIdentity(id)
		case SparseCellIdentity:
			c.plain = plainSparseCellIdentity(id)
		}
		corners = append(corners, c)
	}
	add("zero identity", CellIdentity{})
	add("zero sparse identity", SparseCellIdentity{})
	add("monitored, no optional set", CellIdentity{Schema: 1, Kind: CellKind, Engine: "monitored"})
	add("monitored, negative seed", MonitoredCellIdentity(Experiment{N: 96, Ranks: 24, Seed: -3, BlockSize: 8}))
	add("analytic, negative noise seed", analytic(func(p *perfmodel.Params) { p.NoiseSeed = math.MinInt64 }))
	add("sparse, accelerator profile", sparseID)
	for _, f := range floats {
		f := f
		add(fmt.Sprintf("analytic, power cap %g", f), analytic(func(p *perfmodel.Params) { p.PowerCapW = f }))
		s := sparseID
		s.Density, s.Cond = f, f // omitempty and not: -0 is omitted from one, written in the other
		add(fmt.Sprintf("sparse, density and cond %g", f), s)
	}

	declined := len(corners)
	for _, s := range []string{"a<b", `a"b`, `a\b`, "a\x01b", "é", "a\u2028b"} {
		id := MonitoredCellIdentity(Experiment{N: 96, Ranks: 24})
		id.Phase = s
		add(fmt.Sprintf("identity, string %q", s), id)
		m := analytic(func(*perfmodel.Params) {})
		m.Model.Cost = s
		add(fmt.Sprintf("model version %q", s), m)
	}
	for i := declined; i < len(corners); i++ {
		corners[i].declined = true
	}
	refused := len(corners)
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := f
		add(fmt.Sprintf("analytic, power cap %g", f), analytic(func(p *perfmodel.Params) { p.PowerCapW = f }))
		s := sparseID
		s.Cond = f
		add(fmt.Sprintf("sparse, cond %g", f), s)
	}
	for i := refused; i < len(corners); i++ {
		corners[i].refused = true
	}

	for _, c := range corners {
		wantKey, wantBytes, wantErr := store.KeyFor(c.plain)
		gotKey, gotBytes, gotErr := store.KeyFor(c.hand)
		if c.refused {
			if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Errorf("%s: KeyFor err = %v, reflection path errs %v", c.name, gotErr, wantErr)
			}
			continue
		}
		if wantErr != nil || gotErr != nil {
			t.Errorf("%s: KeyFor errs %v, reflection path %v", c.name, gotErr, wantErr)
			continue
		}
		if gotKey != wantKey || !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("%s: KeyFor digests\n %s\nreflection path\n %s", c.name, gotBytes, wantBytes)
		}
		hand, ok := c.hand.(store.Canonical).AppendCanonical(nil)
		if ok == c.declined {
			t.Errorf("%s: hand codec ok=%v, want declined=%v (wrote %s)", c.name, ok, c.declined, hand)
		}
		if ok && !bytes.Equal(hand, wantBytes) {
			t.Errorf("%s: hand codec wrote\n %s\nencoding/json writes\n %s", c.name, hand, wantBytes)
		}
	}
}

// plainResult is a payload as encoding/json alone reads and writes it:
// CellResult's members and tags, with energy_j the map of domain names a
// payload spells out. It is the oracle of CellResult's codec.
type plainResult struct {
	DurationS float64            `json:"duration_s"`
	EnergyJ   map[string]float64 `json:"energy_j"`
	TotalJ    float64            `json:"total_j"`
	Iters     int                `json:"iters,omitempty"`
	Residual  float64            `json:"residual,omitempty"`
	Engine    string             `json:"engine"`
}

// chargedDomains are the domains a payload may name: the four RAPL
// domains and the accelerator.
var chargedDomains = []rapl.Domain{rapl.PKG0, rapl.PKG1, rapl.DRAM0, rapl.DRAM1, rapl.Accel}

// resultOf is the CellResult a plain payload stands for, its energies
// placed by name; a name no charged domain has is an error.
func resultOf(p plainResult) (CellResult, error) {
	r := CellResult{DurationS: p.DurationS, TotalJ: p.TotalJ, Iters: p.Iters, Residual: p.Residual, Engine: p.Engine}
	placed := 0
	for _, d := range chargedDomains {
		if j, ok := p.EnergyJ[d.String()]; ok {
			r.EnergyJ[d] = j
			placed++
		}
	}
	if placed != len(p.EnergyJ) {
		return CellResult{}, fmt.Errorf("energy_j %v names no charged domain", p.EnergyJ)
	}
	return r, nil
}

// mustResultOf is resultOf for a payload the test wrote.
func mustResultOf(t *testing.T, p plainResult) CellResult {
	t.Helper()
	r, err := resultOf(p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// rapl4 is the energy_j of a cell that charges the four RAPL domains.
func rapl4(pkg0, pkg1, dram0, dram1 float64) map[string]float64 {
	return map[string]float64{
		rapl.PKG0.String(): pkg0, rapl.PKG1.String(): pkg1,
		rapl.DRAM0.String(): dram0, rapl.DRAM1.String(): dram1,
	}
}

// withAccel is energy_j with the accelerator's joules added.
func withAccel(energy map[string]float64, accelJ float64) map[string]float64 {
	energy[rapl.Accel.String()] = accelJ
	return energy
}

// TestCellResultMatchesEncodingJSON is CellResult's drift guard and
// corner table against plainResult: the same members and tags, and for
// every payload an engine writes — the four RAPL domains, the
// accelerator when it charged any — the appended bytes are json.Marshal's
// of the map. What JSON cannot hold is declined, and has no payload.
func TestCellResultMatchesEncodingJSON(t *testing.T) {
	hand, plain := reflect.TypeOf(CellResult{}), reflect.TypeOf(plainResult{})
	if hand.NumField() != plain.NumField() {
		t.Fatalf("CellResult has %d fields, plainResult %d", hand.NumField(), plain.NumField())
	}
	for i := 0; i < hand.NumField(); i++ {
		if h, p := hand.Field(i), plain.Field(i); h.Name != p.Name || h.Tag != p.Tag {
			t.Errorf("field %d: CellResult has %s `%s`, plainResult %s `%s`", i, h.Name, h.Tag, p.Name, p.Tag)
		}
	}

	negZero := math.Copysign(0, -1)
	var payloads []plainResult
	for _, f := range []float64{0, negZero, 1e-6, 9.99e-7, 1e21, 9.99e20, 5e-324, math.MaxFloat64, 1 << 53, 1<<53 + 2, 1e15, -2.5e-7, 0.1} {
		payloads = append(payloads,
			plainResult{DurationS: f, EnergyJ: rapl4(f, -f, f, 0), TotalJ: f, Residual: f, Engine: "analytic"},
			plainResult{DurationS: 1.5, EnergyJ: rapl4(1, 2, 3, f), TotalJ: f, Engine: "monitored"})
		if f != 0 {
			payloads = append(payloads, plainResult{EnergyJ: withAccel(rapl4(1, 2, 3, 4), f), Iters: 119, Engine: "sparse-analytic"})
		}
	}
	payloads = append(payloads,
		plainResult{EnergyJ: rapl4(0, 0, 0, 0)},
		plainResult{DurationS: 11, EnergyJ: rapl4(1, 2, 3, 4), TotalJ: 12, Iters: 13, Residual: 14, Engine: "sparse-analytic"},
		plainResult{EnergyJ: rapl4(1, 2, 3, 4), Iters: -1})
	for _, p := range payloads {
		want, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := mustResultOf(t, p).AppendCanonical([]byte("prefix"))
		if !ok || string(got) != "prefix"+string(want) {
			t.Errorf("%+v: appended\n %s (ok=%v)\nencoding/json writes\n %s", p, bytes.TrimPrefix(got, []byte("prefix")), ok, want)
		}
	}

	var declined []plainResult
	for _, s := range []string{"a<b", `a"b`, `a\b`, "a\x01b", "é", "a\u2028b"} {
		declined = append(declined, plainResult{EnergyJ: rapl4(1, 2, 3, 4), Engine: s})
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		declined = append(declined,
			plainResult{DurationS: f, EnergyJ: rapl4(1, 2, 3, 4)},
			plainResult{EnergyJ: rapl4(1, 2, f, 4)},
			plainResult{EnergyJ: withAccel(rapl4(1, 2, 3, 4), f)})
	}
	for _, p := range declined {
		r := mustResultOf(t, p)
		if b, ok := r.AppendCanonical(nil); ok {
			t.Errorf("%+v: appended %s, want declined", p, b)
		}
		if b, err := appendCellResult(nil, r); err == nil {
			t.Errorf("%+v: payload %s, want an error", p, b)
		}
	}
}

// bitsEqual is == for CellResults with floats compared by bit pattern, so
// -0 and 0 differ.
func bitsEqual(a, b CellResult) bool {
	bits := math.Float64bits
	if bits(a.DurationS) != bits(b.DurationS) || bits(a.TotalJ) != bits(b.TotalJ) || bits(a.Residual) != bits(b.Residual) ||
		a.Iters != b.Iters || a.Engine != b.Engine {
		return false
	}
	for d := range a.EnergyJ {
		if bits(a.EnergyJ[d]) != bits(b.EnergyJ[d]) {
			return false
		}
	}
	return true
}

// TestScanCellResultReadsWhatIsAppended: the scanner accepts everything
// the appender emits — otherwise every warm read would quietly take the
// fallback — and reads it back bit for bit. A name no domain has is
// declined, and decoding it is the fallback's error.
func TestScanCellResultReadsWhatIsAppended(t *testing.T) {
	results := []plainResult{
		{EnergyJ: rapl4(0, 0, 0, 0)},
		{DurationS: 0.7845198814117673, EnergyJ: rapl4(362.1112441015353, 351.5202257024764, 35.37635963971771, 35.37635963971771),
			TotalJ: 784.3841890834472, Engine: "analytic"},
		{DurationS: 5e-324, EnergyJ: withAccel(rapl4(1, math.Copysign(0, -1), 0, 0), math.MaxFloat64),
			TotalJ: 1e21, Iters: 831, Residual: 3.8675859465793887e-16, Engine: "sparse-analytic"},
		{DurationS: math.Copysign(0, -1), EnergyJ: rapl4(0, 0, 0, 9.99e-7), TotalJ: -1e-6, Iters: -4, Residual: 1 << 53},
	}
	for _, p := range results {
		r := mustResultOf(t, p)
		b, ok := r.AppendCanonical(nil)
		if !ok {
			t.Fatalf("%+v: not appended", r)
		}
		got, ok := scanCellResult(b, true)
		if !ok || !bitsEqual(got, r) {
			t.Errorf("scanCellResult(%s) = %+v ok=%v, want %+v", b, got, ok, r)
		}
	}
	for _, payload := range goldenResultPayloads(t) {
		if !bytes.Contains(payload, []byte(`"energy_j"`)) {
			continue // the resilience record: not a CellResult
		}
		if _, ok := scanCellResult(payload, true); !ok {
			t.Errorf("scanCellResult declined a stored payload: %s", payload)
		}
		if err := checkCellResult(payload); err != nil {
			t.Errorf("checkCellResult(%s) = %v", payload, err)
		}
	}
	for _, stray := range []map[string]float64{{"x": 1}, {"PACKAGE_ENERGY:PACKAGE0": 1, "a": 2}} {
		b, err := json.Marshal(plainResult{EnergyJ: stray, Engine: "analytic"})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := scanCellResult(b, true); ok {
			t.Errorf("scanCellResult accepted %s, which names no domain this module charges", b)
		}
		_, err = decodeCellResult(b)
		if err == nil || !strings.Contains(err.Error(), "no domain this module charges") {
			t.Errorf("decodeCellResult(%s) err = %v, want the stray-name error", b, err)
		}
		if cerr := checkCellResult(b); cerr == nil || err == nil || cerr.Error() != err.Error() {
			t.Errorf("checkCellResult(%s) = %v, want decodeCellResult's %v", b, cerr, err)
		}
	}
}

// goldenResultPayloads returns the result payload of every record line in
// the store golden.
func goldenResultPayloads(tb testing.TB) [][]byte {
	tb.Helper()
	golden, err := os.ReadFile(storeRecordsGolden)
	if err != nil {
		tb.Fatal(err)
	}
	var payloads [][]byte
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		var rec store.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			tb.Fatal(err)
		}
		payloads = append(payloads, rec.Result)
	}
	return payloads
}

// FuzzScanCellResult is the one-directional differential that keeps the
// scanner honest about outside input: whatever bytes it accepts,
// encoding/json accepts too and decodes to the same value. (What it
// declines goes to encoding/json anyway.) So the set of store files that
// load, and what they load as, is what it was before the scanner existed.
func FuzzScanCellResult(f *testing.F) {
	for _, payload := range goldenResultPayloads(f) {
		f.Add(payload)
	}
	for _, seed := range []string{
		`{"duration_s":1,"duration_s":2,"energy_j":{},"total_j":3,"engine":"e"}`,
		`{"energy_j":{"A":1,"A":2},"duration_s":1,"total_j":3,"engine":"e"}`,
		`{"energy_j":{"A":1},"energy_j":{"B":2},"total_j":3,"engine":"e"}`,
		`{"energy_j":{"A":1},"energy_j":null,"total_j":3,"engine":"e"}`,
		`{"energy_j":{"PACKAGE_ENERGY:PACKAGE0":1},"energy_j":{"DRAM_ENERGY:PACKAGE1":2},"total_j":3,"engine":"e"}`,
		`{"engine":"e","total_j":3,"energy_j":{"B":2,"A":1},"duration_s":1}`,
		`{"duration_s":1,"energy_j":{},"total_j":3,"iters":1.0,"engine":"e"}`,
		`{"duration_s":+1}`, `{"duration_s":01}`, `{"duration_s":1.}`, `{"duration_s":0x1p-2}`, `{"duration_s":1_0}`,
		`{"duration_s":null}`, `{"energy_j":null}`, `null`, `{}`, ` {"duration_s":1}`, `{"duration_s": 1}`, "{\"duration_s\":1}\n",
		`{"duration_s":1,"unknown":2}`, "{\"\\u0064uration_s\":1}", `{"Duration_S":1}`, `{"engine":"a\"b"}`, `{"engine":"é"}`,
		`{"duration_s":1e999}`, `{"iters":9223372036854775808}`, `{"iters":-0}`, `{"residual":-0}`, `{"energy_j":{"":5e-324}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var plain plainResult
		var want CellResult
		err := json.Unmarshal(payload, &plain)
		if err == nil {
			want, err = resultOf(plain)
		}
		if got, ok := scanCellResult(payload, true); ok {
			if err != nil {
				t.Fatalf("scanner accepted %q as %+v; encoding/json over the names rejects it: %v", payload, got, err)
			}
			if !bitsEqual(got, want) {
				t.Fatalf("scanner read %q as %+v; encoding/json reads %+v", payload, got, want)
			}
		}
		// Scanner and fallback together decode exactly what the oracle
		// does, to the same joules by domain; a check, which restores no
		// energies, fails exactly when the decode does.
		got, derr := decodeCellResult(payload)
		if (derr == nil) != (err == nil) {
			t.Fatalf("decodeCellResult(%q) err = %v; encoding/json over the names: %v", payload, derr, err)
		}
		_, scannedOK := scanCellResult(payload, true)
		if _, ok := scanCellResult(payload, false); ok != scannedOK {
			t.Fatalf("scanCellResult(%q) ok = %v without restoring energies, %v with", payload, ok, scannedOK)
		}
		if cerr := checkCellResult(payload); (cerr == nil) != (derr == nil) {
			t.Fatalf("checkCellResult(%q) = %v; decodeCellResult: %v", payload, cerr, derr)
		}
		if derr == nil && !bitsEqual(got, want) {
			t.Fatalf("decodeCellResult read %q as %+v; encoding/json reads %+v", payload, got, want)
		}
	})
}
