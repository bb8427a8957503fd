package server

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// appended runs v's appender alone: the bytes it wrote with the trailing
// newline, and whether it accepted every member.
func appended[T bodyAppender](v T) ([]byte, bool) {
	w := bodyWriter{ok: true}
	v.appendBody(&w)
	return append(w.b, '\n'), w.ok
}

// checkRendered holds one value's appender to the oracle, marshalBody: the
// appender writes its bytes or refuses, and refuses whatever the oracle
// cannot encode; renderBody returns the oracle's bytes or its error either
// way. It reports whether the appender accepted.
func checkRendered[T bodyAppender](t *testing.T, v T) bool {
	t.Helper()
	want, wantErr := marshalBody(v)
	got, ok := appended(v)
	switch {
	case wantErr != nil && ok:
		t.Errorf("%T: appender accepted what encoding/json refuses (%v):\n%s", v, wantErr, got)
	case wantErr == nil && ok && !bytes.Equal(got, want):
		t.Errorf("%T: appender differs from MarshalIndent:\n got: %s\nwant: %s", v, got, want)
	}
	body, err := renderBody(v)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !bytes.Equal(body, want) {
		t.Errorf("%T: renderBody = %q, %v; want %q, %v", v, body, err, want, wantErr)
	}
	return ok
}

// fill sets every field of the struct v points to, recursing into nested
// structs and filling slices with two elements: each int and string to a
// value of its own, each bool to true, and each float to float(k), k
// counting the fields filled before it.
func fill(v reflect.Value, float func(k int) float64) {
	k := 0
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Float64:
			v.SetFloat(float(k))
			k++
		case reflect.Int:
			k++
			v.SetInt(int64(k))
		case reflect.String:
			k++
			v.SetString(fmt.Sprintf("s%d", k))
		case reflect.Bool:
			v.SetBool(true)
		default:
			panic(fmt.Sprintf("fill: no rule for %s", v.Type()))
		}
	}
	walk(v.Elem())
}

// floatCorners are the float64 values where encoding/json's formatting
// changes shape: the sign of zero, both sides of each exponent-form
// threshold, the smallest subnormal, the largest finite value and 2⁵³.
var floatCorners = []float64{
	math.Copysign(0, -1), 1e-6, 9.99e-7, 1e21, 9.99e20, 5e-324, math.MaxFloat64, 1 << 53,
}

// TestBodyAppendersAreTheOraclesBytes holds every query route's appender
// to MarshalIndent with every field set: once with each float distinct
// (a dropped or swapped member shows), once per float corner, and with
// the sparse body's omitempty band and density at zero.
func TestBodyAppendersAreTheOraclesBytes(t *testing.T) {
	distinct := func(k int) float64 { return 0.25 + float64(k) }
	fills := []func(k int) float64{distinct}
	for _, c := range floatCorners {
		fills = append(fills, func(k int) float64 {
			if k%2 == 1 {
				return -c
			}
			return c
		})
	}
	for _, float := range fills {
		var rec RecommendResponse
		var pred PredictResponse
		var sparse SparseRecommendResponse
		var sweep SweepResponse
		fill(reflect.ValueOf(&rec), float)
		fill(reflect.ValueOf(&pred), float)
		fill(reflect.ValueOf(&sparse), float)
		fill(reflect.ValueOf(&sweep), float)
		accepted := []bool{checkRendered(t, rec), checkRendered(t, pred), checkRendered(t, sparse), checkRendered(t, sweep)}
		for _, zero := range []float64{0, math.Copysign(0, -1)} {
			sparse.Band, sparse.Density = 0, zero
			accepted = append(accepted, checkRendered(t, sparse))
		}
		for _, ok := range accepted {
			if !ok {
				t.Fatalf("an appender refused a finite, plain-string body (floats %g, %g)", float(0), float(1))
			}
		}
	}
	// An empty and a nil cell list keep MarshalIndent's [] and null.
	checkRendered(t, SweepResponse{Cells: []CellResult{}})
	checkRendered(t, SweepResponse{})
}

// TestBodyAppendersRefuseToOracle: a non-finite float or a string that
// needs escaping is left to encoding/json — an error for the first, its
// escaped bytes for the second.
func TestBodyAppendersRefuseToOracle(t *testing.T) {
	for _, v := range []RecommendResponse{
		{MarginPct: math.NaN()},
		{IMe: CellResult{DurationS: math.Inf(1)}},
		{Best: `"quoted"`},
		{ScaLAPACK: CellResult{Placement: "<full>"}},
		{Objective: "énergie"},
	} {
		if checkRendered(t, v) {
			t.Errorf("appender accepted %+v", v)
		}
	}
}

// FuzzRenderBody: for every response type, the appender writes exactly
// MarshalIndent's bytes or refuses, refuses whatever encoding/json
// cannot encode, and renderBody answers what marshalBody answers.
func FuzzRenderBody(f *testing.F) {
	f.Add("IMe", 8640, 1.5, -0.0, 1e21)
	f.Add("full-load", 0, 9.99e-7, 1e-6, 5e-324)
	f.Add(`a"b`, -1, math.MaxFloat64, 9.99e20, float64(1<<53))
	// 1<<40, clipped to MaxInt where int is 32 bits.
	f.Add("<&>", int(min(1<<40, int64(math.MaxInt))), math.NaN(), math.Inf(-1), 0.1)
	f.Fuzz(func(t *testing.T, s string, n int, a, b, c float64) {
		cell := CellResult{Algorithm: s, N: n, Ranks: -n, Placement: "full-load",
			DurationS: a, TotalJ: b, PkgJ: c, DramJ: -a, AvgPowerW: b * c, GFlopsPerWatt: a / 3}
		checkRendered(t, cell)
		checkRendered(t, RecommendResponse{N: n, Ranks: n / 2, Placement: s, Objective: "min-energy",
			Best: s, MarginPct: c, IMe: cell, ScaLAPACK: CellResult{DurationS: b, Algorithm: "ScaLAPACK"}})
		checkRendered(t, PredictResponse{CellResult: cell, ComputeS: b, ExposedCommS: c})
		checkRendered(t, SweepResponse{Count: n, Overlap: n%2 == 0, BlockSize: n, PowerCapW: a,
			Cells: []CellResult{cell, {Placement: s, TotalJ: c}}})
		checkRendered(t, SparseRecommendResponse{Matrix: "sparse", Algorithm: s, Kind: "banded", N: n,
			Band: n % 3, Density: b, Cond: c, Objective: s, MarginPct: a,
			CPU:   SparseCellResult{Device: s, DurationS: a, Iters: n, AccelJ: c},
			Accel: SparseCellResult{Device: "accel", TotalJ: b}})
	})
}
