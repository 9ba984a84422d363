package variation

import (
	"testing"

	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

var tensorSink *ErrorTensor

// BenchmarkSampleError draws one die's error tensor for the paper's
// 576-256-32-10 model at σ = 10 % θ: 155,968 Gaussian variates, the
// sampling every variation-aware die of a sessions job pays.
func BenchmarkSampleError(b *testing.B) {
	arch := snn.Arch{576, 256, 32, 10}
	m := OfTheta(0.10, snn.DefaultParams().Theta)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tensorSink = m.SampleError(arch, stats.NewRNG(uint64(i)))
	}
}
