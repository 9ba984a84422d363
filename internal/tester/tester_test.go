package tester

import (
	"testing"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/quant"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
	"neurotest/internal/variation"
)

func smallSuite(t testing.TB, arch snn.Arch, regime core.Regime) (*core.Generator, *pattern.TestSet) {
	t.Helper()
	params := snn.DefaultParams()
	g, err := core.NewGenerator(core.Options{
		Arch:   arch,
		Params: params,
		Values: fault.PaperValues(params.Theta),
		Regime: regime,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, merged := g.GenerateAll()
	return g, merged
}

func TestGoodChipPasses(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	_, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	v := ate.RunChip(nil, variation.None(), nil)
	if !v.Passed {
		t.Fatalf("good chip failed item %d", v.FailedItem)
	}
	if v.ItemsRun != merged.NumPatterns() {
		t.Errorf("ItemsRun = %d, want %d", v.ItemsRun, merged.NumPatterns())
	}
}

func TestFaultyChipFailsEveryFault(t *testing.T) {
	arch := snn.Arch{6, 5, 4, 3}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	for _, kind := range fault.Kinds() {
		for _, f := range fault.Universe(arch, kind) {
			v := ate.RunChip(f.Modifiers(g.Options().Values), variation.None(), nil)
			if v.Passed {
				t.Errorf("%v passed the full test program", f)
			}
		}
	}
}

func TestEarlyExitOnFirstFail(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	// A NASF fault must fail on the very first item (the NASF/SASF config
	// leads the merged program).
	f := fault.NewNeuronFault(fault.NASF, snn.NeuronID{Layer: 1, Index: 0})
	v := ate.RunChip(f.Modifiers(g.Options().Values), variation.None(), nil)
	if v.Passed || v.FailedItem != 0 || v.ItemsRun != 1 {
		t.Errorf("NASF verdict = %+v, want fail at item 0", v)
	}
}

func TestMeasureCoverageMatchesEngine(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	for _, kind := range fault.Kinds() {
		res := ate.MeasureCoverage(fault.Universe(arch, kind), g.Options().Values)
		if res.Coverage() != 100 {
			t.Errorf("%v coverage = %v", kind, res)
		}
		if len(res.Undetected) != 0 {
			t.Errorf("%v undetected: %v", kind, res.Undetected)
		}
	}
}

func TestCoverageResultString(t *testing.T) {
	r := CoverageResult{Total: 4, Detected: 3, Undetected: []fault.Fault{{}}}
	if got := r.String(); got != "75.00% (3/4)" {
		t.Errorf("String = %q", got)
	}
	if (CoverageResult{}).Coverage() != 0 {
		t.Errorf("empty coverage not 0")
	}
}

func TestOverkillZeroWithoutVariation(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	_, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	if got := ate.MeasureOverkill(20, variation.None(), 1); got != 0 {
		t.Errorf("overkill = %g%% without variation", got)
	}
	if got := ate.MeasureOverkill(0, variation.None(), 1); got != 0 {
		t.Errorf("overkill of empty population = %g", got)
	}
}

func TestEscapeZeroWithoutVariation(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	var faults []fault.Fault
	for _, kind := range fault.Kinds() {
		faults = append(faults, fault.Universe(arch, kind)...)
	}
	if got := ate.MeasureEscape(faults, g.Options().Values, variation.None(), 1); got != 0 {
		t.Errorf("escape = %g%% without variation", got)
	}
	if got := ate.MeasureEscape(nil, g.Options().Values, variation.None(), 1); got != 0 {
		t.Errorf("escape of empty population = %g", got)
	}
}

func TestOverkillRisesWithHugeVariation(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	_, merged := smallSuite(t, arch, core.NegligibleVariation())
	ate := New(merged, nil)
	small := ate.MeasureOverkill(30, variation.OfTheta(0.02, 0.5), 1)
	huge := ate.MeasureOverkill(30, variation.OfTheta(2.0, 0.5), 1)
	if small > huge {
		t.Errorf("overkill not monotone-ish: %.1f%% at 2%%θ vs %.1f%% at 200%%θ", small, huge)
	}
	if huge < 50 {
		t.Errorf("extreme variation overkill only %.1f%%", huge)
	}
}

func TestMetricsDeterministicAcrossRuns(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	_, merged := smallSuite(t, arch, core.NegligibleVariation())
	ate := New(merged, nil)
	vary := variation.OfTheta(0.3, 0.5)
	a := ate.MeasureOverkill(25, vary, 99)
	b := ate.MeasureOverkill(25, vary, 99)
	if a != b {
		t.Errorf("overkill not reproducible: %g vs %g", a, b)
	}
	c := ate.MeasureOverkill(25, vary, 100)
	_ = c // different seed may differ; just must not panic
}

func TestRunChipPanicsWithoutRNG(t *testing.T) {
	arch := snn.Arch{4, 3}
	_, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for variation without RNG")
		}
	}()
	ate.RunChip(nil, variation.OfTheta(0.1, 0.5), nil)
}

func TestGoldenAccessorsAndQuantizedATE(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	sch, err := quant.NewScheme(8, quant.PerChannel)
	if err != nil {
		t.Fatal(err)
	}
	tf := func(n *snn.Network) *snn.Network { c, _ := sch.QuantizedClone(n); return c }
	ate := New(merged, tf)
	if ate.TestSet() != merged {
		t.Errorf("TestSet identity lost")
	}
	if len(ate.Golden(0).SpikeCounts) != arch.Outputs() {
		t.Errorf("golden width wrong")
	}
	// Quantized ATE must still pass good chips and catch all faults.
	if v := ate.RunChip(nil, variation.None(), nil); !v.Passed {
		t.Fatalf("good chip failed under 8-bit quantization at item %d", v.FailedItem)
	}
	for _, kind := range fault.Kinds() {
		res := ate.MeasureCoverage(fault.Universe(arch, kind), g.Options().Values)
		if res.Coverage() != 100 {
			t.Errorf("%v coverage under quantization = %v", kind, res)
		}
	}
}

func TestSampleFaults(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	kinds := fault.Kinds()
	total := 0
	for _, k := range kinds {
		total += fault.UniverseSize(arch, k)
	}
	// Full universe when max is zero or large.
	if got := len(SampleFaults(arch, kinds, 0, 1)); got != total {
		t.Errorf("max=0 sample = %d, want %d", got, total)
	}
	if got := len(SampleFaults(arch, kinds, total+10, 1)); got != total {
		t.Errorf("huge max sample = %d, want %d", got, total)
	}
	// Bounded sample: proportional, at least one per kind, no duplicates.
	s := SampleFaults(arch, kinds, 20, 1)
	if len(s) < len(kinds) || len(s) > 25 {
		t.Errorf("sample size = %d", len(s))
	}
	seen := map[string]bool{}
	perKind := map[fault.Kind]int{}
	for _, f := range s {
		key := f.String()
		if seen[key] {
			t.Errorf("duplicate fault %v", f)
		}
		seen[key] = true
		perKind[f.Kind]++
	}
	for _, k := range kinds {
		if perKind[k] == 0 {
			t.Errorf("kind %v absent from sample", k)
		}
	}
	// Deterministic for equal seeds.
	s2 := SampleFaults(arch, kinds, 20, 1)
	for i := range s {
		if s[i] != s2[i] {
			t.Fatalf("sample not deterministic at %d", i)
		}
	}
}

func TestNewSplitSeparatesGoldenFromChip(t *testing.T) {
	// Golden responses come from the ideal model while chips are programmed
	// through a lossy transform: the behavioural gap must show up as a
	// failing good chip (the mechanism behind the paper's "overkill with
	// quantization" rows), while sharing the transform on both sides
	// cancels it.
	arch := snn.Arch{6, 5, 4}
	_, merged := smallSuite(t, arch, core.NoVariation())
	halve := func(n *snn.Network) *snn.Network {
		c := n.Clone()
		for b := range c.W {
			for i := range c.W[b] {
				c.W[b][i] *= 0.5
			}
		}
		return c
	}
	split := NewSplit(merged, nil, halve)
	if v := split.RunChip(nil, variation.None(), nil); v.Passed {
		t.Errorf("halved chip passed against ideal goldens")
	}
	shared := New(merged, halve)
	if v := shared.RunChip(nil, variation.None(), nil); !v.Passed {
		t.Errorf("shared transform did not cancel: failed item %d", v.FailedItem)
	}
	// The split ATE's goldens are the ideal ATE's goldens, untouched by the
	// chip-side transform.
	ideal := New(merged, nil)
	for i := range merged.Items {
		if !split.Golden(i).Equal(ideal.Golden(i)) {
			t.Fatalf("split golden %d diverges from ideal", i)
		}
	}
}

func TestTolerancePassBandEdges(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	_, merged := smallSuite(t, arch, core.NoVariation())
	ate, err := New(merged, nil).WithTolerance(1)
	if err != nil {
		t.Fatal(err)
	}
	g := ate.Golden(0)
	shift := func(d int) snn.Result {
		out := make([]int, len(g.SpikeCounts))
		for i, c := range g.SpikeCounts {
			out[i] = c + d
		}
		return snn.Result{SpikeCounts: out}
	}
	// Exactly ±n sits inside the pass band; ±(n+1) is outside.
	if !ate.matches(shift(0), g) || !ate.matches(shift(1), g) || !ate.matches(shift(-1), g) {
		t.Errorf("counts within ±1 rejected at tolerance 1")
	}
	if ate.matches(shift(2), g) || ate.matches(shift(-2), g) {
		t.Errorf("counts at ±2 accepted at tolerance 1")
	}
	// Mismatched output widths never pass, whatever the tolerance.
	short := snn.Result{SpikeCounts: g.SpikeCounts[:len(g.SpikeCounts)-1]}
	if ate.matches(short, g) {
		t.Errorf("narrower output accepted")
	}
	if ate.tolerance != 1 {
		t.Fatalf("tolerance = %d", ate.tolerance)
	}
	// Tolerance 0 is exact comparison.
	exact, err := New(merged, nil).WithTolerance(0)
	if err != nil {
		t.Fatal(err)
	}
	if exact.matches(shift(1), g) || !exact.matches(shift(0), g) {
		t.Errorf("tolerance 0 not exact")
	}
	// Negative tolerance is a configuration error, not a panic.
	if _, err := New(merged, nil).WithTolerance(-1); err == nil {
		t.Errorf("negative tolerance accepted")
	}
}

func TestVerdictFieldsOnPass(t *testing.T) {
	arch := snn.Arch{4, 3}
	_, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	v := ate.RunChip(nil, variation.None(), stats.NewRNG(1))
	if !v.Passed || v.FailedItem != -1 {
		t.Errorf("verdict = %+v", v)
	}
}
