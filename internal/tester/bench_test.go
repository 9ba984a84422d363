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
	sampleSink  []fault.Fault
	sessionSink SessionReport
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
