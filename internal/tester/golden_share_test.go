package tester

import (
	"context"
	"strings"
	"sync"
	"testing"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/snn"
)

// TestSampleFaultsBudgetIsHardCap pins the sampling fix: the at-least-one-
// per-kind bumps and per-kind rounding used to let the sample exceed max.
// The budget is now exact — len == min(max, total) — while the per-kind
// guarantee holds whenever it fits.
func TestSampleFaultsBudgetIsHardCap(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	kinds := fault.Kinds()

	// max = 6 with five kinds: proportional flooring plus the at-least-one
	// bumps overshoot (1+1+1+2+2 = 7 > 6); the overshoot must be trimmed,
	// not returned.
	s := SampleFaults(arch, kinds, 6, 3)
	if len(s) != 6 {
		t.Errorf("max=6 sample size = %d, want exactly 6", len(s))
	}
	perKind := map[fault.Kind]int{}
	for _, f := range s {
		perKind[f.Kind]++
	}
	for _, k := range kinds {
		if perKind[k] == 0 {
			t.Errorf("kind %v absent despite max >= number of kinds", k)
		}
	}

	// max = 3 < number of kinds: the guarantee cannot fit; the first max
	// kinds in listed order get one fault each.
	s = SampleFaults(arch, kinds, 3, 3)
	if len(s) != 3 {
		t.Errorf("max=3 sample size = %d, want exactly 3", len(s))
	}
	perKind = map[fault.Kind]int{}
	for _, f := range s {
		perKind[f.Kind]++
	}
	for i, k := range kinds {
		want := 0
		if i < 3 {
			want = 1
		}
		if perKind[k] != want {
			t.Errorf("max=3: kind %v sampled %d times, want %d", k, perKind[k], want)
		}
	}

	// A mid-range budget is exact too (this is the historical overshoot
	// case: 20*9/127 rounds three kinds up to 1 and the top-up pass used to
	// push past the budget).
	if s := SampleFaults(arch, kinds, 20, 1); len(s) != 20 {
		t.Errorf("max=20 sample size = %d, want exactly 20", len(s))
	}
}

// TestCoverageCampaignsBuildGoldenOnce asserts the memoization contract of
// the Golden/Evaluator split: repeated coverage campaigns on one ATE —
// including a tolerance clone, the neurotestd artifact-cache pattern —
// simulate the good-chip traces exactly once, regardless of worker count.
func TestCoverageCampaignsBuildGoldenOnce(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	values := g.Options().Values
	universe := fault.Universe(arch, fault.ESF)

	ate := New(merged, nil)
	before := faultsim.Snapshot()
	first := ate.MeasureCoverage(universe, values)
	second := ate.MeasureCoverage(universe, values)
	clone, err := ate.CloneWithTolerance(1)
	if err != nil {
		t.Fatal(err)
	}
	third := clone.MeasureCoverage(universe, values)
	for i, res := range []CoverageResult{first, second, third} {
		if len(res.Errors) > 0 {
			t.Fatalf("campaign %d errored: %v", i, res.Errors)
		}
		if res.Detected != first.Detected {
			t.Errorf("campaign %d detected %d, first detected %d", i, res.Detected, first.Detected)
		}
	}
	if d := faultsim.Snapshot().GoldenBuilds - before.GoldenBuilds; d != 1 {
		t.Errorf("golden builds across three campaigns = %d, want 1", d)
	}
}

// TestConcurrentToleranceCampaignsShareGolden runs two coverage campaigns
// under different tolerances concurrently over one shared Golden — the
// neurotestd pattern of parallel jobs cloning one cached ATE. Under -race
// this gates the sharded memo and the goldenShare sync.Once.
func TestConcurrentToleranceCampaignsShareGolden(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	values := g.Options().Values
	var universe []fault.Fault
	for _, kind := range fault.Kinds() {
		universe = append(universe, fault.Universe(arch, kind)...)
	}

	base := New(merged, nil)
	want := base.MeasureCoverage(universe, values)
	if len(want.Errors) > 0 {
		t.Fatalf("serial campaign errored: %v", want.Errors)
	}

	shared := New(merged, nil)
	before := faultsim.Snapshot()
	ates := make([]*ATE, 2)
	ates[0] = shared
	clone, err := shared.CloneWithTolerance(1)
	if err != nil {
		t.Fatal(err)
	}
	ates[1] = clone
	results := make([]CoverageResult, len(ates))
	var wg sync.WaitGroup
	for i, a := range ates {
		wg.Add(1)
		go func(i int, a *ATE) {
			defer wg.Done()
			results[i] = a.MeasureCoverage(universe, values)
		}(i, a)
	}
	wg.Wait()

	for i, res := range results {
		if len(res.Errors) > 0 {
			t.Fatalf("concurrent campaign %d errored: %v", i, res.Errors)
		}
		if res.Detected != want.Detected || res.Total != want.Total {
			t.Errorf("concurrent campaign %d = %d/%d detected, serial = %d/%d",
				i, res.Detected, res.Total, want.Detected, want.Total)
		}
	}
	if d := faultsim.Snapshot().GoldenBuilds - before.GoldenBuilds; d != 1 {
		t.Errorf("golden builds across two concurrent campaigns = %d, want 1", d)
	}
}

// TestGoldenBuildFailureIsCampaignError: an item whose pattern does not fit
// the input layer fails the golden build's validation, so MeasureCoverage
// reports the build failure in Errors instead of crashing.
func TestGoldenBuildFailureIsCampaignError(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	merged.Items[len(merged.Items)-1].Pattern = snn.NewPattern(arch.Inputs() + 1)
	universe := fault.Universe(arch, fault.NASF)
	res := New(merged, nil).MeasureCoverage(universe, g.Options().Values)
	if len(res.Errors) != 1 || !strings.Contains(res.Errors[0].Error(), "building golden traces") {
		t.Fatalf("errors = %v, want the one golden-build failure", res.Errors)
	}
	if res.Total != len(universe) || res.Detected != 0 || len(res.Undetected) != 0 {
		t.Errorf("a campaign without goldens tallied %v", res)
	}
}

// TestMisshapedSetIsCampaignError: a configuration whose boundary 1 is one
// weight short — configuration 0 of a generated suite, which once panicked
// out of MeasureCoverage from the packed kernel — fails the golden build's
// validation. MeasureCoverage reports that error once, naming the
// configuration, and DetectsMatrix returns it.
func TestMisshapedSetIsCampaignError(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	cfg := merged.Configs[0].Clone()
	cfg.W[1] = cfg.W[1][:len(cfg.W[1])-1]
	merged.Configs[0] = cfg
	var universe []fault.Fault
	for _, kind := range fault.Kinds() {
		universe = append(universe, fault.Universe(arch, kind)...)
	}
	ate := New(merged, nil)
	res := ate.MeasureCoverage(universe, g.Options().Values)
	if len(res.Errors) != 1 || !strings.Contains(res.Errors[0].Error(), "building golden traces") || !strings.Contains(res.Errors[0].Error(), "config 0") {
		t.Fatalf("errors = %v, want the one golden-build failure naming config 0", res.Errors)
	}
	if res.Total != len(universe) || res.Detected != 0 || len(res.Undetected) != 0 {
		t.Errorf("a campaign without goldens tallied %v", res)
	}
	if rows, err := ate.DetectsMatrix(context.Background(), universe, g.Options().Values); rows != nil || err != res.Errors[0] {
		t.Errorf("DetectsMatrix = (%v, %v), want the same build error", rows, err)
	}
}
