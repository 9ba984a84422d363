package core

import (
	"context"
	"fmt"
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
)

func testGenerator(t *testing.T, arch snn.Arch, regime Regime) *Generator {
	t.Helper()
	params := snn.DefaultParams()
	g, err := NewGenerator(Options{
		Arch:   arch,
		Params: params,
		Values: fault.PaperValues(params.Theta),
		Regime: regime,
	})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return g
}

// smallArches are architectures small enough for exhaustive coverage checks
// in unit tests, chosen to exercise odd widths, width-1 layers and depth.
var smallArches = []snn.Arch{
	{4, 3},
	{6, 5, 4},
	{8, 7, 3, 2},
	{5, 4, 1, 3}, // width-1 hidden layer: fallback paths
	{9, 6, 5, 4, 3},
}

func TestGenerateCountsMatchPrediction(t *testing.T) {
	for _, arch := range smallArches {
		for _, regime := range []Regime{NoVariation(), NegligibleVariation()} {
			g := testGenerator(t, arch, regime)
			for _, kind := range fault.Kinds() {
				ts := g.Generate(kind)
				want := g.PredictedCounts(kind)
				if got := ts.NumPatterns(); got != want {
					t.Errorf("%v %v %v: %d patterns, predicted %d", arch, regime, kind, got, want)
				}
				if got := ts.NumConfigs(); got != want {
					t.Errorf("%v %v %v: %d configs, predicted %d", arch, regime, kind, got, want)
				}
				if err := ts.Validate(); err != nil {
					t.Errorf("%v %v %v: invalid test set: %v", arch, regime, kind, err)
				}
			}
		}
	}
}

func TestPaperModelCounts(t *testing.T) {
	// Table 5/6 "Proposed" rows: exact configuration/pattern counts for the
	// paper's two evaluation models under no variation.
	cases := []struct {
		arch snn.Arch
		want map[fault.Kind]int
	}{
		{snn.Arch{576, 256, 32, 10}, map[fault.Kind]int{
			fault.NASF: 1, fault.SASF: 1, fault.ESF: 3, fault.HSF: 6, fault.SWF: 3,
		}},
		{snn.Arch{576, 256, 64, 32, 10}, map[fault.Kind]int{
			fault.NASF: 1, fault.SASF: 1, fault.ESF: 4, fault.HSF: 8, fault.SWF: 4,
		}},
	}
	for _, tc := range cases {
		g := testGenerator(t, tc.arch, NoVariation())
		for kind, want := range tc.want {
			ts := g.Generate(kind)
			if got := ts.NumPatterns(); got != want {
				t.Errorf("%v %v: got %d patterns, paper reports %d", tc.arch, kind, got, want)
			}
			if got := ts.TestLength(); got != want {
				t.Errorf("%v %v: got test length %d, paper reports %d", tc.arch, kind, got, want)
			}
		}
	}
}

func TestFullCoverageSmallModels(t *testing.T) {
	for _, arch := range smallArches {
		for _, regime := range []Regime{NoVariation(), NegligibleVariation()} {
			g := testGenerator(t, arch, regime)
			for _, kind := range fault.Kinds() {
				ts := g.Generate(kind)
				universe := fault.Universe(arch, kind)
				missed := undetected(t, ts, g.Options().Values, universe)
				if len(missed) > 0 {
					t.Errorf("%v %v %v: %d/%d faults undetected, first: %v",
						arch, regime, kind, len(missed), len(universe), missed[0])
				}
			}
		}
	}
}

func TestGeneratedOutputsAreEngineered(t *testing.T) {
	// The generated items must drive the good chip into the exact states the
	// construction promises: for ESF and SWF(ω̂>θ) items the good chip is
	// silent at the outputs (Ω = 0 regime); for HSF items each output fires
	// at most once (the single Ω = ωmax wave at t = 0, or the directly
	// stimulated target group when the output layer itself is under test)
	// and at least one output fires; the NASF/SASF item keeps the whole
	// chip silent.
	for _, arch := range smallArches {
		g := testGenerator(t, arch, NoVariation())
		checkSilent := func(kind fault.Kind) {
			ts := g.Generate(kind)
			for i, it := range ts.Items {
				sim := snn.NewSimulator(ts.Configs[it.ConfigIndex])
				res := sim.Run(it.Pattern, it.Timesteps, snn.ApplyOnce, nil)
				for j, c := range res.SpikeCounts {
					if c != 0 {
						t.Errorf("%v %v item %d: output %d fired %d times, want silent", arch, kind, i, j, c)
					}
				}
			}
		}
		checkSilent(fault.NASF)
		checkSilent(fault.SASF)
		checkSilent(fault.ESF) // targets inhibited in the good chip
		checkSilent(fault.SWF) // ω̂ > θ category: good chip silent

		hsf := g.Generate(fault.HSF)
		for i, it := range hsf.Items {
			sim := snn.NewSimulator(hsf.Configs[it.ConfigIndex])
			res := sim.Run(it.Pattern, it.Timesteps, snn.ApplyOnce, nil)
			fired := 0
			for j, c := range res.SpikeCounts {
				if c > 1 {
					t.Errorf("%v HSF item %d: output %d fired %d times, want at most 1", arch, i, j, c)
				}
				fired += c
			}
			if fired == 0 {
				t.Errorf("%v HSF item %d: no output fired in the good chip", arch, i)
			}
		}
	}
}

// distinctWeightLevels counts the distinct weight values of a network.
func distinctWeightLevels(net *snn.Network) int {
	seen := make(map[float64]bool)
	for b := range net.W {
		for _, w := range net.W[b] {
			seen[w] = true
		}
	}
	return len(seen)
}

func TestSixWeightLevels(t *testing.T) {
	// Section 3.1: a test configuration uses at most six levels of weights.
	for _, arch := range []snn.Arch{{576, 256, 32, 10}, {576, 256, 64, 32, 10}} {
		g := testGenerator(t, arch, NoVariation())
		for _, kind := range fault.Kinds() {
			ts := g.Generate(kind)
			for ci, cfg := range ts.Configs {
				if n := distinctWeightLevels(cfg); n > 6 {
					t.Errorf("%v %v config %d uses %d weight levels, paper promises <= 6", arch, kind, ci, n)
				}
			}
		}
	}
}

func TestRegimeString(t *testing.T) {
	if NoVariation().String() != "no-variation" {
		t.Errorf("NoVariation string: %q", NoVariation().String())
	}
	if got := NegligibleVariation().String(); got != "variation-aware (ν unbounded)" {
		t.Errorf("NegligibleVariation string: %q", got)
	}
	if got := ForSigma(10, 0.05, 3).String(); got == "" {
		t.Errorf("ForSigma string empty")
	}
}

func TestGenerateAllMergesSharedAlwaysSpikeConfig(t *testing.T) {
	g := testGenerator(t, snn.Arch{6, 5, 4}, NoVariation())
	perKind, merged := g.GenerateAll()
	if len(perKind) != 5 {
		t.Fatalf("expected 5 per-kind sets, got %d", len(perKind))
	}
	// Merged deduplicates the shared NASF/SASF configuration.
	wantItems := 0
	for k, ts := range perKind {
		if k == fault.SASF {
			continue
		}
		wantItems += ts.NumPatterns()
	}
	if merged.NumPatterns() != wantItems {
		t.Errorf("merged has %d items, want %d", merged.NumPatterns(), wantItems)
	}
	// The merged set must still cover every fault of every model.
	eng := faultsim.NewGolden(merged).NewEvaluator(g.Options().Values)
	for _, kind := range fault.Kinds() {
		universe := fault.Universe(snn.Arch{6, 5, 4}, kind)
		got, err := eng.Coverage(context.Background(), universe)
		if err != nil {
			t.Fatal(err)
		}
		if got != len(universe) {
			t.Errorf("merged set covers %d/%d %v faults", got, len(universe), kind)
		}
	}
}

func TestInvalidOptions(t *testing.T) {
	params := snn.DefaultParams()
	values := fault.PaperValues(params.Theta)
	cases := []Options{
		{Arch: snn.Arch{5}, Params: params, Values: values},                                        // too shallow
		{Arch: snn.Arch{5, 4}, Params: snn.Params{Theta: -1, Leak: 0.5, WMax: 10}, Values: values}, // bad params
		{Arch: snn.Arch{5, 4}, Params: params, Values: fault.Values{ESFTheta: 1, HSFTheta: 2}},     // ESF above θ
		{Arch: snn.Arch{5, 4}, Params: params, Values: values, Timesteps: 100},                     // window too long
		{Arch: snn.Arch{5, 4}, Params: params, Values: values, Regime: Regime{Consider: true}},     // ν < 1
	}
	for i, opt := range cases {
		if _, err := NewGenerator(opt); err == nil {
			t.Errorf("case %d: expected error for %+v", i, opt)
		}
	}
}

func TestCoverGroups(t *testing.T) {
	cases := []struct {
		n, size int
		want    [][]int
	}{
		{5, 2, [][]int{{0, 1}, {2, 3}, {4}}},
		{4, 4, [][]int{{0, 1, 2, 3}}},
		{3, 10, [][]int{{0, 1, 2}}},
		{1, 1, [][]int{{0}}},
		{3, 0, [][]int{{0}, {1}, {2}}}, // size clamps to 1
	}
	for _, tc := range cases {
		got := coverGroups(tc.n, tc.size)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("coverGroups(%d,%d) = %v, want %v", tc.n, tc.size, got, tc.want)
		}
	}
}

func TestPickAncillaries(t *testing.T) {
	anc := pickAncillaries(6, []int{1, 2}, 3)
	want := []int{0, 3, 4}
	if fmt.Sprint(anc) != fmt.Sprint(want) {
		t.Errorf("pickAncillaries = %v, want %v", anc, want)
	}
	if got := pickAncillaries(6, []int{1}, 0); got != nil {
		t.Errorf("zero ancillaries should be nil, got %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic when ancillaries unavailable")
		}
	}()
	pickAncillaries(2, []int{0, 1}, 1)
}

// coverage fault-simulates universe against ts and returns how many faults
// it detects.
func coverage(t *testing.T, ts *pattern.TestSet, values fault.Values, universe []fault.Fault) int {
	t.Helper()
	n, err := faultsim.NewGolden(ts).NewEvaluator(values).Coverage(context.Background(), universe)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// undetected fault-simulates universe against ts and returns the faults no
// item detects.
func undetected(t *testing.T, ts *pattern.TestSet, values fault.Values, universe []fault.Fault) []fault.Fault {
	t.Helper()
	det, err := faultsim.NewGolden(ts).NewEvaluator(values).DetectsBatch(context.Background(), universe)
	if err != nil {
		t.Fatal(err)
	}
	var missed []fault.Fault
	for i, d := range det {
		if !d {
			missed = append(missed, universe[i])
		}
	}
	return missed
}
