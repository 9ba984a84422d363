package tester

import (
	"testing"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/snn"
	"neurotest/internal/unreliable"
	"neurotest/internal/variation"
)

var (
	sampleSink   []fault.Fault
	sessionSink  SessionReport
	sessionsSink SessionStats
)

// BenchmarkSampleFaults draws the 256-fault all-kind sample a neurotestd
// coverage job takes from the 576-256-32-10 universes (155,968 faults per
// synapse kind).
func BenchmarkSampleFaults(b *testing.B) {
	arch := snn.Arch{576, 256, 32, 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sampleSink = SampleFaults(arch, fault.Kinds(), 256, uint64(i))
	}
}

// BenchmarkSampleFaultsBaseline draws the 20,000-fault SWF sample a
// Tables 5/6 baseline row takes (experiments.Config.BaselineFaultSample's
// default) from the 155,968-fault 576-256-32-10 universe: a sample large
// enough that stats.RNG.Choose shuffles the materialised universe.
func BenchmarkSampleFaultsBaseline(b *testing.B) {
	arch := snn.Arch{576, 256, 32, 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sampleSink = SampleFaults(arch, []fault.Kind{fault.SWF}, 20000, uint64(i))
	}
}

// BenchmarkRunChipSession tests one good die at σ = 10 % θ against the
// merged program the paper's 576-256-32-10 model gets for negligible
// variation, which the die passes: sample its error tensor, program every
// configuration and run every item.
func BenchmarkRunChipSession(b *testing.B) {
	g, merged := smallSuite(b, snn.Arch{576, 256, 32, 10}, core.NegligibleVariation())
	ate := New(merged, nil)
	vary := variation.OfTheta(0.10, g.Options().Params.Theta)
	seed := chipSeed(1, 0)
	if rep := ate.RunChipSession(nil, unreliable.Reliable(), vary, RetestPolicy{}, seed); rep.Outcome != Pass {
		b.Fatalf("good die at σ = 10 %% θ: %v", rep)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sessionSink = ate.RunChipSession(nil, unreliable.Reliable(), vary, RetestPolicy{}, seed)
	}
}

// BenchmarkMeasureSessions runs the floor's faulty sessions job through the
// library: 8 dies at σ = 10 % θ against the merged no-variation program of
// the paper's 576-256-32-10 model, the die i carrying fault i of a
// 256-fault all-kind sample that each op draws afresh, as a neurotestd job
// draws its defects.
func BenchmarkMeasureSessions(b *testing.B) {
	arch := snn.Arch{576, 256, 32, 10}
	g, merged := smallSuite(b, arch, core.NoVariation())
	ate := New(merged, nil)
	values := g.Options().Values
	vary := variation.OfTheta(0.10, g.Options().Params.Theta)
	ate.MeasureSessions(8, nil, unreliable.Reliable(), vary, RetestPolicy{}, 0) // builds the goldens
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := uint64(i)
		faults := SampleFaults(arch, fault.Kinds(), 256, seed+41)
		mods := func(c int) *snn.Modifiers { return faults[c%len(faults)].Modifiers(values) }
		sessionsSink = ate.MeasureSessions(8, mods, unreliable.Reliable(), vary, RetestPolicy{}, seed)
	}
}
