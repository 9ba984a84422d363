package neurotest_test

import (
	"slices"
	"strings"
	"testing"

	"neurotest"
	"neurotest/internal/faultsim"
)

func TestModelConstructors(t *testing.T) {
	four := neurotest.FourLayerModel()
	if four.Arch.String() != "576-256-32-10" {
		t.Errorf("FourLayerModel arch = %v", four.Arch)
	}
	five := neurotest.FiveLayerModel()
	if five.Arch.String() != "576-256-64-32-10" {
		t.Errorf("FiveLayerModel arch = %v", five.Arch)
	}
	// Paper parameters (Section 5.1).
	if four.Params.Theta != 0.5 || four.Params.WMax != 10 {
		t.Errorf("params = %+v", four.Params)
	}
	if four.Values.ESFTheta != 0.05 || four.Values.HSFTheta != 0.95 || four.Values.SWFOmega != 1.0 {
		t.Errorf("values = %+v", four.Values)
	}
}

func TestGenerateSuiteCounts(t *testing.T) {
	m := neurotest.NewModel(48, 24, 12, 6)
	suite, err := m.GenerateSuite(neurotest.NoVariation())
	if err != nil {
		t.Fatal(err)
	}
	want := map[neurotest.FaultKind]int{
		neurotest.NASF: 1,
		neurotest.SASF: 1,
		neurotest.ESF:  3, // L-1
		neurotest.HSF:  6, // 2(L-1)
		neurotest.SWF:  3, // L-1 for ω̂ > θ
	}
	for kind, n := range want {
		if got := suite.PerKind[kind].NumPatterns(); got != n {
			t.Errorf("%v patterns = %d, want %d", kind, got, n)
		}
	}
	if suite.TotalTestLength() != 14 {
		t.Errorf("total test length = %d, want 14", suite.TotalTestLength())
	}
	// Merged deduplicates the NASF/SASF configuration.
	if suite.Merged.NumPatterns() != 13 {
		t.Errorf("merged patterns = %d, want 13", suite.Merged.NumPatterns())
	}
}

func TestEndToEndCoverage(t *testing.T) {
	m := neurotest.NewModel(48, 24, 12, 6)
	suite, err := m.GenerateSuite(neurotest.NoVariation())
	if err != nil {
		t.Fatal(err)
	}
	for kind, ts := range suite.PerKind {
		cov, err := m.MeasureCoverage(kind, ts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cov.Coverage() != 100 {
			t.Errorf("%v coverage = %v", kind, cov)
		}
	}
	// And under the paper's 4-bit quantization claim.
	scheme, err := neurotest.NewQuantScheme(4, neurotest.PerChannel)
	if err != nil {
		t.Fatal(err)
	}
	for kind, ts := range suite.PerKind {
		cov, err := m.MeasureCoverage(kind, ts, &scheme)
		if err != nil {
			t.Fatal(err)
		}
		if cov.Coverage() != 100 {
			t.Errorf("%v coverage at 4-bit per-channel = %v", kind, cov)
		}
	}
}

func TestMeasureCoverageNilSet(t *testing.T) {
	m := neurotest.NewModel(4, 3)
	if _, err := m.MeasureCoverage(neurotest.SWF, nil, nil); err == nil {
		t.Errorf("nil test set accepted")
	}
}

func TestRegimeHelpers(t *testing.T) {
	if neurotest.NoVariation().Consider {
		t.Errorf("NoVariation considers variation")
	}
	if !neurotest.NegligibleVariation().Consider {
		t.Errorf("NegligibleVariation does not consider variation")
	}
	r := neurotest.RegimeForSigma(10, 0.05, 3)
	if !r.Consider || r.Nu != 1111 {
		t.Errorf("RegimeForSigma = %+v", r)
	}
}

func TestVariationOfTheta(t *testing.T) {
	v := neurotest.VariationOfTheta(0.10, 0.5)
	if v.Sigma != 0.05 {
		t.Errorf("sigma = %g", v.Sigma)
	}
}

func TestUniverseSizes(t *testing.T) {
	m := neurotest.FourLayerModel()
	if got := len(m.Universe(neurotest.ESF)); got != 298 {
		t.Errorf("ESF universe = %d", got)
	}
	if got := len(m.Universe(neurotest.SWF)); got != 155968 {
		t.Errorf("SWF universe = %d", got)
	}
}

func TestATEFlow(t *testing.T) {
	m := neurotest.NewModel(24, 12, 6)
	suite, err := m.GenerateSuite(neurotest.NoVariation())
	if err != nil {
		t.Fatal(err)
	}
	ate := m.NewATE(suite.Merged, nil)
	v := ate.RunChip(nil)
	if !v.Passed {
		t.Errorf("good chip failed: %+v", v)
	}
	// A faulty chip fails.
	f := m.Universe(neurotest.HSF)[0]
	v = ate.RunChip(f.Modifiers(m.Values))
	if v.Passed {
		t.Errorf("HSF chip passed")
	}
}

// TestDictionaryAndCompactionFacade drives the diagnosis façade over one
// ATE: the dictionary, two diagnosed dies and the compaction read one
// golden simulation of the program.
func TestDictionaryAndCompactionFacade(t *testing.T) {
	m := neurotest.NewModel(24, 12, 6)
	suite, err := m.GenerateSuite(neurotest.NoVariation())
	if err != nil {
		t.Fatal(err)
	}
	var faults []neurotest.Fault
	for _, k := range []neurotest.FaultKind{neurotest.NASF, neurotest.ESF, neurotest.HSF} {
		faults = append(faults, m.Universe(k)...)
	}
	before := faultsim.Snapshot().GoldenBuilds
	ate := m.NewATE(suite.Merged, nil)
	dict, err := m.BuildDictionary(ate, faults)
	if err != nil {
		t.Fatal(err)
	}
	if dict.Detected() != dict.Total() {
		t.Fatalf("dictionary detected %d/%d", dict.Detected(), dict.Total())
	}
	// Diagnose injected defects through the facade.
	for _, f := range []neurotest.Fault{m.Universe(neurotest.HSF)[3], m.Universe(neurotest.ESF)[1]} {
		sig := m.DiagnoseChip(ate, f.Modifiers(m.Values))
		if !sig.AnyFail() {
			t.Fatalf("%v: defective chip passed", f)
		}
		if !slices.Contains(dict.Lookup(sig), f) {
			t.Errorf("%v missing from its diagnosis", f)
		}
	}
	// Compaction through the facade preserves coverage.
	compacted, st, err := m.CompactTestSet(ate, faults)
	if err != nil {
		t.Fatal(err)
	}
	if st.ItemsAfter > st.ItemsBefore || compacted.NumPatterns() != st.ItemsAfter || st.Detected != len(faults) {
		t.Errorf("compaction stats inconsistent: %+v", st)
	}
	if d := faultsim.Snapshot().GoldenBuilds - before; d != 1 {
		t.Errorf("the façade flow built %d Goldens, want 1", d)
	}
}

// TestFacadeRejectsFaultOutsideChip: BuildDictionary and CompactTestSet
// return an error naming a fault outside the architecture, before any
// Golden is built.
func TestFacadeRejectsFaultOutsideChip(t *testing.T) {
	m := neurotest.NewModel(12, 8, 4)
	suite, err := m.GenerateSuite(neurotest.NoVariation())
	if err != nil {
		t.Fatal(err)
	}
	bogus := neurotest.Fault{Kind: neurotest.SWF, Synapse: neurotest.SynapseID{Boundary: 0, Pre: 98, Post: 0}}
	faults := append(m.Universe(neurotest.NASF), bogus)
	before := faultsim.Snapshot().GoldenBuilds
	ate := m.NewATE(suite.Merged, nil)
	if dict, err := m.BuildDictionary(ate, faults); dict != nil || err == nil || !strings.Contains(err.Error(), bogus.String()) {
		t.Errorf("BuildDictionary: %v, %v; want an error naming %v", dict, err, bogus)
	}
	if ts, _, err := m.CompactTestSet(ate, faults); ts != nil || err == nil || !strings.Contains(err.Error(), bogus.String()) {
		t.Errorf("CompactTestSet: %v, %v; want an error naming %v", ts, err, bogus)
	}
	if d := faultsim.Snapshot().GoldenBuilds - before; d != 0 {
		t.Errorf("%d Goldens built before the rejections", d)
	}
}
