package tester

import (
	"context"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/obs"
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
	v := ate.RunChip(nil)
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
			v := ate.RunChip(f.Modifiers(g.Options().Values))
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
	v := ate.RunChip(f.Modifiers(g.Options().Values))
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

// TestMeasureCoverageBroadcastMatchesChips checks the collapsed campaign
// end to end against the ATE's own chip simulation: over a shuffled
// universe of all five kinds, with fault values the program was not aimed
// at (so some faults escape), a fault is undetected exactly when its
// faulty chip passes RunChip, and Undetected lists those faults in input
// order.
func TestMeasureCoverageBroadcastMatchesChips(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	_, merged := smallSuite(t, arch, core.NoVariation())
	values := fault.Values{ESFTheta: 0.4, HSFTheta: 0.6, SWFOmega: 0.2}
	var universe []fault.Fault
	for _, kind := range fault.Kinds() {
		universe = append(universe, fault.Universe(arch, kind)...)
	}
	faults := make([]fault.Fault, len(universe))
	for i, p := range stats.NewRNG(3).Perm(len(universe)) {
		faults[i] = universe[p]
	}
	ate := New(merged, nil)
	before := faultsim.Snapshot()
	res := ate.MeasureCoverage(faults, values)
	if classes := faultsim.Snapshot().Classes - before.Classes; classes >= int64(len(faults)) {
		t.Fatalf("fixture broken: %d faults form %d classes", len(faults), classes)
	}
	var want []fault.Fault
	for _, f := range faults {
		if ate.RunChip(f.Modifiers(values)).Passed {
			want = append(want, f)
		}
	}
	if len(want) == 0 || len(want) == len(faults) {
		t.Fatalf("fixture broken: %d of %d faults escape", len(want), len(faults))
	}
	if res.Total != len(faults) || res.Detected != len(faults)-len(want) || len(res.Errors) != 0 {
		t.Fatalf("coverage %v, want %d detected", res, len(faults)-len(want))
	}
	for i := range want {
		if res.Undetected[i] != want[i] {
			t.Fatalf("undetected[%d] = %v, want %v", i, res.Undetected[i], want[i])
		}
	}
}

// outsideFaults returns faults that are not faults of a chip of arch: one
// of each unknown kind next to the five, and for each coordinate of a
// neuron and of a synapse site one fault at -1 and one just past the last
// index.
func outsideFaults(arch snn.Arch) []fault.Fault {
	neuron := func(k fault.Kind, layer, index int) fault.Fault {
		return fault.Fault{Kind: k, Neuron: snn.NeuronID{Layer: layer, Index: index}}
	}
	synapse := func(k fault.Kind, b, pre, post int) fault.Fault {
		return fault.Fault{Kind: k, Synapse: snn.SynapseID{Boundary: b, Pre: pre, Post: post}}
	}
	return []fault.Fault{
		{Kind: fault.Kind(-1)}, {Kind: fault.Kind(5)},
		neuron(fault.NASF, -1, 0), neuron(fault.ESF, len(arch), 0),
		neuron(fault.HSF, 1, -1), neuron(fault.NASF, 1, arch[1]),
		synapse(fault.SWF, -1, 0, 0), synapse(fault.SASF, arch.Boundaries(), 0, 0),
		synapse(fault.SWF, 0, -1, 0), synapse(fault.SASF, 0, arch[0], 0),
		synapse(fault.SWF, 0, 0, -1), synapse(fault.SASF, 0, 0, arch[1]),
	}
}

// TestMeasureCoverageRejectsFaultsOutsideChip mixes a fault of each
// unknown kind and, per coordinate, faults just outside the architecture
// into a universe with escapes: each gets one error naming it, in input
// order, and the valid faults are tallied exactly as the clean universe.
func TestMeasureCoverageRejectsFaultsOutsideChip(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	_, merged := smallSuite(t, arch, core.NoVariation())
	values := fault.Values{ESFTheta: 0.4, HSFTheta: 0.6, SWFOmega: 0.2}
	var universe []fault.Fault
	for _, kind := range fault.Kinds() {
		universe = append(universe, fault.Universe(arch, kind)...)
	}
	ate := New(merged, nil)
	clean := ate.MeasureCoverage(universe, values)
	if clean.Detected == 0 || len(clean.Undetected) == 0 || len(clean.Errors) != 0 {
		t.Fatalf("fixture broken: clean universe %v", clean)
	}

	bad := outsideFaults(arch)
	for _, f := range bad {
		if f.In(arch) {
			t.Fatalf("fixture broken: %v is a fault of %v", f, arch)
		}
	}
	step := len(universe) / len(bad)
	var mixed []fault.Fault
	for k, f := range bad {
		mixed = append(append(mixed, universe[k*step:(k+1)*step]...), f)
	}
	mixed = append(mixed, universe[len(bad)*step:]...)

	res := ate.MeasureCoverage(mixed, values)
	if res.Total != len(mixed) || res.Detected != clean.Detected || !slices.Equal(res.Undetected, clean.Undetected) {
		t.Errorf("valid faults tallied %v, clean universe %v", res, clean)
	}
	if len(res.Errors) != len(bad) {
		t.Fatalf("%d errors for %d faults outside the chip: %v", len(res.Errors), len(bad), res.Errors)
	}
	for k, f := range bad {
		if !namesRejection(res.Errors[k], f, arch) {
			t.Errorf("error %d does not name %v and %v: %v", k, f, arch, res.Errors[k])
		}
	}
}

// TestCoverageSimulatesInputNeuronNASF: an NASF fault on an input neuron
// lies outside the paper's universe but is a fault of the chip, so the
// campaign simulates it, with the chip's own verdict, and never rejects it.
func TestCoverageSimulatesInputNeuronNASF(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	values := g.Options().Values
	ate := New(merged, nil)
	var faults []fault.Fault
	for i := 0; i < arch[0]; i++ {
		faults = append(faults, fault.Fault{Kind: fault.NASF, Neuron: snn.NeuronID{Layer: 0, Index: i}})
	}
	res := ate.MeasureCoverage(faults, values)
	if len(res.Errors) != 0 || res.Detected+len(res.Undetected) != len(faults) {
		t.Fatalf("input-layer NASF faults not simulated: %v (errors %v)", res, res.Errors)
	}
	for _, f := range faults {
		fails := !ate.RunChip(f.Modifiers(values)).Passed
		if undetected := slices.Contains(res.Undetected, f); fails == undetected {
			t.Errorf("%v: its chip fails %v, the campaign leaves it undetected %v", f, fails, undetected)
		}
	}
}

// TestMeasureEscapeRejectsFaultOutsideChip: one fault outside the
// architecture among valid ones at σ = 0 adds one error, and the escape
// percentage runs over the valid dies alone.
func TestMeasureEscapeRejectsFaultOutsideChip(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	faults := fault.Universe(arch, fault.SASF)
	bogus := fault.Fault{Kind: fault.SASF, Synapse: snn.SynapseID{Boundary: 2, Pre: 0, Post: 0}}
	mixed := append(append(append([]fault.Fault{}, faults[:5]...), bogus), faults[5:]...)
	esc, errs := ate.MeasureEscape(mixed, g.Options().Values, variation.None(), 1)
	if esc != 0 || len(errs) != 1 || !namesRejection(errs[0], bogus, arch) {
		t.Errorf("escape = %g%%, errors %v; want 0 over the valid dies and one rejection of %v", esc, errs, bogus)
	}
}

// TestCoverageSpanReportsClasses: the fault-simulate span of a campaign
// carries the class count beside the fault count.
func TestCoverageSpanReportsClasses(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	faults := fault.Universe(arch, fault.SASF)
	rec := obs.NewRecorder(0)
	ctx, root := obs.StartTrace(context.Background(), rec, obs.TraceID("classes"), "coverage")
	before := faultsim.Snapshot()
	if _, err := New(merged, nil).MeasureCoverageContext(ctx, faults, g.Options().Values); err != nil {
		t.Fatal(err)
	}
	root.End()
	classes := int(faultsim.Snapshot().Classes - before.Classes)
	if classes >= len(faults) {
		t.Fatalf("fixture broken: %d faults form %d classes", len(faults), classes)
	}
	for _, span := range rec.Snapshot() {
		if span.Name != "fault-simulate" {
			continue
		}
		attrs := make(map[string]string)
		for _, a := range span.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["faults"] != strconv.Itoa(len(faults)) || attrs["classes"] != strconv.Itoa(classes) {
			t.Errorf("fault-simulate attrs = %+v, want faults=%d classes=%d", span.Attrs, len(faults), classes)
		}
		return
	}
	t.Fatal("no fault-simulate span recorded")
}

// TestCoverageCountsBroadcastFaults: a campaign evaluates class
// representatives only, yet faults simulated still counts every fault, and
// fault classes one per representative: one per post neuron for the SWF
// universe of the generated SWF program, whose configurations give every
// synapse into a neuron the same weight and presynaptic train.
func TestCoverageCountsBroadcastFaults(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, _ := smallSuite(t, arch, core.NoVariation())
	faults := fault.Universe(arch, fault.SWF)
	classes := arch[1] + arch[2]
	before := faultsim.Snapshot()
	New(g.Generate(fault.SWF), nil).MeasureCoverage(faults, g.Options().Values)
	after := faultsim.Snapshot()
	if d := after.FaultsSimulated - before.FaultsSimulated; d != int64(len(faults)) {
		t.Errorf("faults simulated = %d, want %d", d, len(faults))
	}
	if d := after.Classes - before.Classes; d != int64(classes) {
		t.Errorf("classes = %d, want %d (of %d faults)", d, classes, len(faults))
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
	if got, errs := ate.MeasureEscape(faults, g.Options().Values, variation.None(), 1); got != 0 || len(errs) != 0 {
		t.Errorf("escape = %g%% without variation (errors %v)", got, errs)
	}
	if got, errs := ate.MeasureEscape(nil, g.Options().Values, variation.None(), 1); got != 0 || len(errs) != 0 {
		t.Errorf("escape of empty population = %g (errors %v)", got, errs)
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

func TestGoldenAccessorsAndQuantizedATE(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	sch, err := quant.NewScheme(8, quant.PerChannel)
	if err != nil {
		t.Fatal(err)
	}
	ate := New(merged, &sch)
	if ate.TestSet() != merged {
		t.Errorf("TestSet identity lost")
	}
	if len(ate.Golden(0).SpikeCounts) != arch.Outputs() {
		t.Errorf("golden width wrong")
	}
	// Quantized ATE must still pass good chips and catch all faults.
	if v := ate.RunChip(nil); !v.Passed {
		t.Fatalf("good chip failed under 8-bit quantization at item %d", v.FailedItem)
	}
	for _, kind := range fault.Kinds() {
		res := ate.MeasureCoverage(fault.Universe(arch, kind), g.Options().Values)
		if res.Coverage() != 100 {
			t.Errorf("%v coverage under quantization = %v", kind, res)
		}
	}
}

// TestClusterDefectWrapsTheSample pins the clustered-defect convention:
// die i carries size consecutive sampled faults from i*size on, wrapping
// around the sample, merged into one set of modifiers.
func TestClusterDefectWrapsTheSample(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	values := fault.PaperValues(snn.DefaultParams().Theta)
	sample := SampleFaults(arch, fault.Kinds(), 5, 3)
	got, mods := ClusterDefect(sample, values, 1, 3)
	want := []fault.Fault{sample[3], sample[4], sample[0]}
	if !slices.Equal(got, want) {
		t.Fatalf("die 1's cluster = %v, want %v", got, want)
	}
	merged := snn.MergeModifiers(want[0].Modifiers(values), want[1].Modifiers(values), want[2].Modifiers(values))
	if !reflect.DeepEqual(mods, merged) {
		t.Errorf("die 1's modifiers = %+v, want the merge %+v", mods, merged)
	}
	for _, tc := range []struct {
		sample []fault.Fault
		size   int
	}{{sample, 0}, {nil, 2}} {
		if faults, mods := ClusterDefect(tc.sample, values, 4, tc.size); faults != nil || mods != nil {
			t.Errorf("size %d over %d faults: (%v, %+v), want a defect-free die", tc.size, len(tc.sample), faults, mods)
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
	// under a lossy scheme: the behavioural gap must show up as a failing
	// good chip (the mechanism behind the paper's "overkill with
	// quantization" rows), while sharing the scheme on both sides cancels
	// it. Coverage still fault-simulates the chip as programmed, so the
	// split ATE's campaign is the shared-scheme ATE's, not the ideal one.
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	coarse, err := quant.NewScheme(2, quant.PerNetwork)
	if err != nil {
		t.Fatal(err)
	}
	ideal := New(merged, nil)
	split := NewSplit(ideal, &coarse)
	if split.expected != ideal.expected {
		t.Fatal("the split ATE must read its expected responses from the ideal ATE's Golden")
	}
	if v := split.RunChip(nil); v.Passed {
		t.Errorf("2-bit chip passed against ideal goldens")
	}
	shared := New(merged, &coarse)
	if v := shared.RunChip(nil); !v.Passed {
		t.Errorf("shared scheme did not cancel: failed item %d", v.FailedItem)
	}
	// The split ATE's goldens are the ideal ATE's goldens, untouched by the
	// chip-side scheme.
	for i := range merged.Items {
		if !split.Golden(i).Equal(ideal.Golden(i)) {
			t.Fatalf("split golden %d diverges from ideal", i)
		}
	}
	universe := fault.Universe(arch, fault.HSF)
	want := shared.MeasureCoverage(universe, g.Options().Values)
	got := split.MeasureCoverage(universe, g.Options().Values)
	if len(got.Errors) > 0 || got.Detected != want.Detected || !slices.Equal(got.Undetected, want.Undetected) {
		t.Fatalf("split coverage %v, shared-scheme coverage %v", got, want)
	}
	if id := ideal.MeasureCoverage(universe, g.Options().Values); id.Detected == want.Detected {
		t.Fatalf("2-bit coverage %v equals ideal %v; the scheme must matter here", want, id)
	}
}

// TestQuantizedATEProgramsOnce pins the one programming of a quantized
// ATE: its dies and its Golden read the very networks quant.Program made.
// The die's configurations are the shared golden set's, and a weight
// written into them before the first golden read and the first die (which
// sums the input layer's weights) reaches both, so a good die still passes
// and the expected outputs move with it. The programmed networks share
// boundary arrays, as the generated ones do, so each array is written once.
func TestQuantizedATEProgramsOnce(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	_, merged := smallSuite(t, arch, core.NoVariation())
	s, err := quant.NewScheme(4, quant.PerChannel)
	if err != nil {
		t.Fatal(err)
	}
	ate := New(merged, &s)
	if ate.expected != ate.goldens {
		t.Fatal("New must serve expected responses from its coverage Golden")
	}
	for ci, net := range ate.nets {
		if net != ate.goldens.ts.Configs[ci] {
			t.Fatalf("config %d: the die and the Golden read different networks", ci)
		}
		if net == merged.Configs[ci] {
			t.Fatalf("config %d: the die reads the generated network, not the programmed one", ci)
		}
	}
	// The programmed configurations share arrays: halve each one once.
	halved := make(map[*float64]bool)
	for _, net := range ate.nets {
		for b := range net.W {
			if w := net.W[b]; !halved[&w[0]] {
				halved[&w[0]] = true
				for i := range w {
					w[i] *= 0.5
				}
			}
		}
	}
	if v := ate.RunChip(nil); !v.Passed {
		t.Fatalf("good die failed item %d: its goldens were simulated from other networks", v.FailedItem)
	}
	fresh := New(merged, &s)
	moved := false
	for i := range merged.Items {
		moved = moved || !ate.Golden(i).Equal(fresh.Golden(i))
	}
	if !moved {
		t.Error("halving the programmed weights moved no golden response")
	}
}

func TestTolerancePassBandEdges(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	_, merged := smallSuite(t, arch, core.NoVariation())
	ate, err := New(merged, nil).CloneWithTolerance(1)
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
	exact, err := New(merged, nil).CloneWithTolerance(0)
	if err != nil {
		t.Fatal(err)
	}
	if exact.matches(shift(1), g) || !exact.matches(shift(0), g) {
		t.Errorf("tolerance 0 not exact")
	}
	// Negative tolerance is a configuration error, not a panic.
	if _, err := New(merged, nil).CloneWithTolerance(-1); err == nil {
		t.Errorf("negative tolerance accepted")
	}
}

func TestVerdictFieldsOnPass(t *testing.T) {
	arch := snn.Arch{4, 3}
	_, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	v := ate.RunChip(nil)
	if !v.Passed || v.FailedItem != -1 {
		t.Errorf("verdict = %+v", v)
	}
}
