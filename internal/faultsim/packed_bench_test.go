package faultsim

import (
	"math"
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

// balancedTestSetT builds a fixture whose membranes hover near threshold:
// weights are scaled by layer fan-in so that activity neither saturates nor
// dies out. Saturated random networks (randomTestSetT's ±10 weights) render
// almost every neuron fault inert — every neuron fires every timestep no
// matter what — which would let the benchmark measure nothing but early
// exits.
func balancedTestSetT(arch snn.Arch, nConfigs, patternsPer int, seed uint64, timesteps int) *pattern.TestSet {
	params := snn.DefaultParams()
	rng := stats.NewRNG(seed)
	ts := pattern.NewTestSet("balanced", arch, params)
	for c := 0; c < nConfigs; c++ {
		cfg := snn.New(arch, params)
		for b := range cfg.W {
			scale := 1.5 / math.Sqrt(float64(arch[b]))
			for i := range cfg.W[b] {
				cfg.W[b][i] = (-1 + 2*rng.Float64()) * scale
			}
		}
		ci := ts.AddConfig(cfg)
		for p := 0; p < patternsPer; p++ {
			pat := snn.NewPattern(arch.Inputs())
			for i := range pat {
				pat[i] = rng.Float64() < 0.4
			}
			ts.AddItem(pattern.Item{
				Label:       "bal",
				ConfigIndex: ci,
				Pattern:     pat,
				Timesteps:   timesteps,
				Hold:        true,
				Repeat:      1,
			})
		}
	}
	return ts
}

// benchDetected keeps the verdict tally observable so the compiler cannot
// elide the benchmarked work.
var benchDetected int

// BenchmarkKernel isolates the fault-simulation kernel: the Golden (good-chip
// traces + packed trace store) is built outside the timed loop, and the cold
// variants use a fresh evaluator per iteration so every verdict is fully
// re-simulated (empty memo). scalar walks the universe through the test
// oracle's Detects; packed runs the same universe through DetectsBatch. The warm variants reuse
// one evaluator, so they measure the memoized steady state instead.
//
// The universe is the threshold-fault kinds (ESF/HSF): their site trains
// are cheap to derive, so the numbers reflect downstream propagation — the
// part the packed kernel batches. Synapse-fault universes (SWF/SASF) spend
// most of their time deriving the per-fault site train, identical work in
// both paths, and are covered by the whole-campaign benchmark instead.
func BenchmarkKernel(b *testing.B) {
	arch := snn.Arch{576, 256, 32, 10}
	ts := balancedTestSetT(arch, 2, 2, 7, 8)
	values := fault.PaperValues(0.5)
	var universe []fault.Fault
	for _, kind := range []fault.Kind{fault.ESF, fault.HSF} {
		universe = append(universe, fault.Universe(arch, kind)...)
	}
	g := NewGolden(ts, nil)

	// The downstream memo lives on the Golden's items and is shared by every
	// evaluator, so a truly cold iteration must flush it — otherwise every
	// iteration after the first measures map lookups, not simulation.
	flushMemos := func() {
		for i := range g.items {
			g.items[i].memo.m = make(map[memoKey]bool)
		}
	}

	b.Run("scalar/cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			flushMemos()
			e := newScalarOracle(g.NewEvaluator(values))
			b.StartTimer()
			n := 0
			for _, f := range universe {
				if e.Detects(f) {
					n++
				}
			}
			benchDetected = n
		}
	})
	b.Run("packed/cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			flushMemos()
			e := g.NewEvaluator(values)
			b.StartTimer()
			n := 0
			for _, v := range detectsBatch(b, e, universe) {
				if v {
					n++
				}
			}
			benchDetected = n
		}
	})

	scalarWarm := newScalarOracle(g.NewEvaluator(values))
	for _, f := range universe {
		scalarWarm.Detects(f)
	}
	b.Run("scalar/warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, f := range universe {
				if scalarWarm.Detects(f) {
					n++
				}
			}
			benchDetected = n
		}
	})
	packedWarm := g.NewEvaluator(values)
	detectsBatch(b, packedWarm, universe)
	b.Run("packed/warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, v := range detectsBatch(b, packedWarm, universe) {
				if v {
					n++
				}
			}
			benchDetected = n
		}
	})
}
