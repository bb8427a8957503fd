package store_test

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/scalapack"
	"repro/internal/store"
)

// keyOf digests a Params' canonical identity the way every store
// consumer does.
func keyOf(t *testing.T, id perfmodel.CanonicalIdentity) string {
	t.Helper()
	key, _, err := store.KeyFor(id)
	if err != nil {
		t.Fatalf("KeyFor: %v", err)
	}
	return key
}

// TestSpellingVariantsCollapseToOneKey pins the satellite contract: every
// way of spelling the *same* request — zero values, explicit defaults,
// mixtures — maps to a single store key.
func TestSpellingVariantsCollapseToOneKey(t *testing.T) {
	variants := map[string]perfmodel.Params{
		"zero":                {},
		"explicit block size": {BlockSize: scalapack.DefaultBlockSize},
		"negative zero cap":   {PowerCapW: math.Copysign(0, -1)},
	}
	want := keyOf(t, perfmodel.Params{}.CanonicalIdentity())
	for name, prm := range variants {
		if got := keyOf(t, prm.CanonicalIdentity()); got != want {
			t.Errorf("spelling %q produced key %.12s…, want %.12s… (all variants must collapse)", name, got, want)
		}
	}
}

// TestDistinctRequestsGetDistinctKeys guards against over-normalization:
// parameters that change model output must change the key.
func TestDistinctRequestsGetDistinctKeys(t *testing.T) {
	base := keyOf(t, perfmodel.Params{}.CanonicalIdentity())
	distinct := map[string]perfmodel.Params{
		"overlap":       {Overlap: true},
		"block size 32": {BlockSize: 32},
		"power cap":     {PowerCapW: 120},
		"variability":   {NodeVariability: 0.05, NoiseSeed: 3},
		"noise seed":    {NodeVariability: 0.05, NoiseSeed: 4},
	}
	seen := map[string]string{"(default)": base}
	for name, prm := range distinct {
		key := keyOf(t, prm.CanonicalIdentity())
		for prior, pk := range seen {
			if key == pk {
				t.Errorf("distinct requests %q and %q share key %.12s…", name, prior, key)
			}
		}
		seen[name] = key
	}
}

// TestVersionBumpsYieldFreshKeys pins the no-stale-cross-version-hits
// contract: bumping any version stamp — model semantics, cost-model
// semantics, calibration semantics, or a learned coefficient table —
// must move the identity to a fresh key.
func TestVersionBumpsYieldFreshKeys(t *testing.T) {
	base := perfmodel.Params{}.CanonicalIdentity()
	baseKey := keyOf(t, base)

	bump := func(mutate func(*perfmodel.CanonicalIdentity)) perfmodel.CanonicalIdentity {
		id := base
		mutate(&id)
		return id
	}
	bumps := map[string]perfmodel.CanonicalIdentity{
		"model version":       bump(func(id *perfmodel.CanonicalIdentity) { id.Model = "analytic/v2" }),
		"cost model version":  bump(func(id *perfmodel.CanonicalIdentity) { id.Cost = "hockney-logp/v2" }),
		"calibration version": bump(func(id *perfmodel.CanonicalIdentity) { id.Calibration = "additive/v2" }),
	}
	seen := map[string]string{"(current)": baseKey}
	for name, id := range bumps {
		key := keyOf(t, id)
		for prior, pk := range seen {
			if key == pk {
				t.Errorf("version bump %q did not change the key (collides with %s: %.12s…)", name, prior, key)
			}
		}
		seen[name] = key
	}
}

// TestCurrentVersionStampsPinned pins the stamps' current values: any
// code change that bumps them will fail here, forcing the author to
// acknowledge that every previously stored record goes stale. It also
// holds the identity to carrying the machine's constants, cost model and
// calibration, so a retune of either moves every key by itself.
func TestCurrentVersionStampsPinned(t *testing.T) {
	id := perfmodel.Params{}.CanonicalIdentity()
	_, b, err := store.KeyFor(id)
	if err != nil {
		t.Fatal(err)
	}
	for name, constant := range map[string]any{"Cost": mpi.DefaultCostModel(), "Calibration": power.Skylake8160()} {
		obj, err := json.Marshal(constant)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + name + `":` + string(obj); !strings.Contains(string(b), want) {
			t.Errorf("identity %s does not carry %s", b, want)
		}
	}
	if id.Model != "analytic/v1" {
		t.Errorf("ModelVersion = %q; bumping it invalidates all stored analytic results — intended?", id.Model)
	}
	if id.Cost != "hockney-logp/v1" {
		t.Errorf("CostModelVersion = %q; bumping it invalidates all stored results — intended?", id.Cost)
	}
	if id.Calibration != "additive/v1" {
		t.Errorf("CalibrationVersion = %q; bumping it invalidates all stored results — intended?", id.Calibration)
	}
}
