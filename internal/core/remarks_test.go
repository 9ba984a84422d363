package core

import (
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

// TestNonNegligibleVariationCounts exercises Remarks 1 and 2: when ν is
// smaller than layer widths, the covering-group sizes shrink to ν-derived
// values and the test counts grow accordingly — O(Σ ⌈N/ν⌉) for ESF/HSF and
// O(Σ ⌈N/ν⌉²)-flavoured products for SWF.
func TestNonNegligibleVariationCounts(t *testing.T) {
	arch := snn.Arch{64, 48, 32}
	params := snn.DefaultParams()
	values := fault.PaperValues(params.Theta)

	mk := func(nu int) *Generator {
		g, err := NewGenerator(Options{
			Arch: arch, Params: params, Values: values,
			Regime: Regime{Consider: true, Nu: nu},
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	unbounded := mk(stats.MaxNu)
	limited := mk(16) // ν = 16 < every hidden width

	// ESF: group size min{N, ν}: layers 48, 32 → ⌈48/16⌉ + ⌈32/16⌉ = 5
	// items instead of 2.
	if got := limited.Generate(fault.ESF).NumPatterns(); got != 5 {
		t.Errorf("ν-limited ESF patterns = %d, want 5", got)
	}
	if got := unbounded.Generate(fault.ESF).NumPatterns(); got != 2 {
		t.Errorf("unbounded ESF patterns = %d, want 2", got)
	}

	// HSF: group size min{⌈N/4⌉, ⌈ν/4⌉} = 4: ⌈48/4⌉=12 + ⌈32/4⌉=8 = 20.
	if got := limited.Generate(fault.HSF).NumPatterns(); got != 20 {
		t.Errorf("ν-limited HSF patterns = %d, want 20", got)
	}

	// SWF (ω̂ > θ): pre groups min{⌈N/4⌉, 4} x target groups min{N, 16}:
	// boundary 1: ⌈64/4⌉ = 16 pre groups x ⌈48/16⌉ = 3 = 48;
	// boundary 2: ⌈48/4⌉ = 12 x ⌈32/16⌉ = 2 = 24. Total 72.
	if got := limited.Generate(fault.SWF).NumPatterns(); got != 72 {
		t.Errorf("ν-limited SWF patterns = %d, want 72", got)
	}

	// Counts always match the closed-form predictor.
	for _, kind := range fault.Kinds() {
		if got, want := limited.Generate(kind).NumPatterns(), limited.PredictedCounts(kind); got != want {
			t.Errorf("%v: generated %d, predicted %d", kind, got, want)
		}
	}
}

// TestNuLimitedSetsStillCover: shrinking the groups must never lose
// coverage — the ν-limited sets are strictly more conservative.
func TestNuLimitedSetsStillCover(t *testing.T) {
	arch := snn.Arch{10, 8, 6}
	params := snn.DefaultParams()
	values := fault.PaperValues(params.Theta)
	g, err := NewGenerator(Options{
		Arch: arch, Params: params, Values: values,
		Regime: Regime{Consider: true, Nu: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range fault.Kinds() {
		ts := g.Generate(kind)
		universe := fault.Universe(arch, kind)
		if got := coverage(t, ts, values, universe); got != len(universe) {
			t.Errorf("%v with ν=4: %d/%d covered", kind, got, len(universe))
		}
	}
}

// TestNuOneDegenerates: ν = 1 is the most conservative legal regime —
// single-neuron groups everywhere — and must still generate and cover.
func TestNuOneDegenerates(t *testing.T) {
	arch := snn.Arch{5, 4, 3}
	params := snn.DefaultParams()
	values := fault.PaperValues(params.Theta)
	g, err := NewGenerator(Options{
		Arch: arch, Params: params, Values: values,
		Regime: Regime{Consider: true, Nu: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range fault.Kinds() {
		ts := g.Generate(kind)
		if err := ts.Validate(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		universe := fault.Universe(arch, kind)
		if got := coverage(t, ts, values, universe); got != len(universe) {
			t.Errorf("%v with ν=1: %d/%d covered", kind, got, len(universe))
		}
	}
}
