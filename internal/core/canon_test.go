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

// canonicalTypes is one zero value of every type with a hand-written
// appender.
func canonicalTypes() []store.Canonical {
	return []store.Canonical{
		CellIdentity{}, SparseCellIdentity{}, CellResult{},
		perfmodel.CanonicalIdentity{}, perfmodel.Params{},
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
	plainCellResult         CellResult
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
	sparseID := SparseAnalyticCellIdentity(SparseExperiment{N: 4096, Ranks: 144, Device: cluster.DeviceAccel, Band: 8, Cond: 100}, perfmodel.Params{})
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
		case CellResult:
			c.plain = plainCellResult(id)
		}
		corners = append(corners, c)
	}
	add("zero identity", CellIdentity{})
	add("zero sparse identity", SparseCellIdentity{})
	add("monitored, no optional set", CellIdentity{Schema: 1, Kind: CellKind, Engine: "monitored"})
	add("monitored, negative seed", MonitoredCellIdentity(Experiment{N: 96, Ranks: 24, Seed: -3, BlockSize: 8}))
	add("analytic, negative noise seed", analytic(func(p *perfmodel.Params) { p.NoiseSeed = math.MinInt64 }))
	add("analytic, coefficients stamped", func() CellIdentity {
		id := analytic(func(*perfmodel.Params) {})
		id.Model.Coefficients = "table/v3"
		return id
	}())
	add("sparse, accelerator profile", sparseID)
	for _, f := range floats {
		f := f
		add(fmt.Sprintf("analytic, power cap %g", f), analytic(func(p *perfmodel.Params) { p.PowerCapW = f }))
		s := sparseID
		s.Density, s.Cond = f, f // omitempty and not: -0 is omitted from one, written in the other
		add(fmt.Sprintf("sparse, density and cond %g", f), s)
		add(fmt.Sprintf("result, residual and total %g", f), CellResult{DurationS: f, EnergyJ: map[string]float64{"B": f, "A": -f}, TotalJ: f, Residual: f, Engine: "analytic"})
	}
	add("result, empty energy map", CellResult{EnergyJ: map[string]float64{}})
	add("result, iterations", CellResult{EnergyJ: map[string]float64{"ACCEL_ENERGY:NODE": 1}, Iters: 119, Engine: "sparse-analytic"})
	add("result, negative iterations", CellResult{EnergyJ: map[string]float64{}, Iters: -1})

	declined := len(corners)
	add("result, nil energy map", CellResult{Engine: "analytic"})
	add("result, nine energy domains", CellResult{EnergyJ: map[string]float64{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "f": 6, "g": 7, "h": 8, "i": 9}})
	for _, s := range []string{"a<b", `a"b`, `a\b`, "a\x01b", "é", "a\u2028b"} {
		id := MonitoredCellIdentity(Experiment{N: 96, Ranks: 24})
		id.Phase = s
		add(fmt.Sprintf("identity, string %q", s), id)
		add(fmt.Sprintf("result, engine %q", s), CellResult{EnergyJ: map[string]float64{}, Engine: s})
		add(fmt.Sprintf("result, domain %q", s), CellResult{EnergyJ: map[string]float64{s: 1}})
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
		add(fmt.Sprintf("analytic, latency %g", f), analytic(func(p *perfmodel.Params) { p.Cost.LatencyInter = f }))
		s := sparseID
		s.Cond = f
		add(fmt.Sprintf("sparse, cond %g", f), s)
		add(fmt.Sprintf("result, duration %g", f), CellResult{DurationS: f, EnergyJ: map[string]float64{}})
		add(fmt.Sprintf("result, domain energy %g", f), CellResult{EnergyJ: map[string]float64{"A": f}})
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

// bitsEqual is reflect.DeepEqual for CellResults with floats compared by
// bit pattern, so -0 and 0 differ.
func bitsEqual(a, b CellResult) bool {
	bits := math.Float64bits
	if bits(a.DurationS) != bits(b.DurationS) || bits(a.TotalJ) != bits(b.TotalJ) || bits(a.Residual) != bits(b.Residual) ||
		a.Iters != b.Iters || a.Engine != b.Engine || (a.EnergyJ == nil) != (b.EnergyJ == nil) || len(a.EnergyJ) != len(b.EnergyJ) {
		return false
	}
	for k, v := range a.EnergyJ {
		if w, ok := b.EnergyJ[k]; !ok || bits(v) != bits(w) {
			return false
		}
	}
	return true
}

// TestScanCellResultReadsWhatIsAppended: the scanner accepts everything
// the appender emits — otherwise every warm read would quietly take the
// fallback — and reads it back bit for bit.
func TestScanCellResultReadsWhatIsAppended(t *testing.T) {
	results := []CellResult{
		{EnergyJ: map[string]float64{}},
		{DurationS: 0.7845198814117673, EnergyJ: map[string]float64{
			"DRAM_ENERGY:PACKAGE0": 35.37635963971771, "DRAM_ENERGY:PACKAGE1": 35.37635963971771,
			"PACKAGE_ENERGY:PACKAGE0": 362.1112441015353, "PACKAGE_ENERGY:PACKAGE1": 351.5202257024764,
		}, TotalJ: 784.3841890834472, Engine: "analytic"},
		{DurationS: 5e-324, EnergyJ: map[string]float64{"ACCEL_ENERGY:NODE": math.MaxFloat64, "x": math.Copysign(0, -1)},
			TotalJ: 1e21, Iters: 831, Residual: 3.8675859465793887e-16, Engine: "sparse-analytic"},
		{DurationS: math.Copysign(0, -1), EnergyJ: map[string]float64{"a": 9.99e-7}, TotalJ: -1e-6, Iters: -4, Residual: 1 << 53},
	}
	for _, r := range results {
		b, ok := r.AppendCanonical(nil)
		if !ok {
			t.Fatalf("%+v: not appended", r)
		}
		got, ok := scanCellResult(b)
		if !ok || !bitsEqual(got, r) {
			t.Errorf("scanCellResult(%s) = %+v ok=%v, want %+v", b, got, ok, r)
		}
	}
	for _, payload := range goldenResultPayloads(t) {
		if !bytes.Contains(payload, []byte(`"energy_j"`)) {
			continue // the resilience record: not a CellResult
		}
		if _, ok := scanCellResult(payload); !ok {
			t.Errorf("scanCellResult declined a stored payload: %s", payload)
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
		got, ok := scanCellResult(payload)
		if !ok {
			return
		}
		var want CellResult
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatalf("scanner accepted %q as %+v; encoding/json rejects it: %v", payload, got, err)
		}
		if !bitsEqual(got, want) {
			t.Fatalf("scanner read %q as %+v; encoding/json reads %+v", payload, got, want)
		}
	})
}
