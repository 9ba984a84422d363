package faultsim

import (
	"math"
	"testing"

	"neurotest/internal/core"
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

// BenchmarkKernel isolates the fault-simulation kernel: the Golden (the
// good-chip traces) is built outside the timed loop, and the cold variants
// flush its memo before each iteration so every verdict is fully
// re-simulated. scalar walks the universe through the test oracle's
// Detects; packed runs the same universe through Golden.Detects. The warm
// variants keep the memo, so they measure the memoized steady state
// instead.
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
	g := mustGolden(b, ts)

	// The downstream memo lives on the Golden's items and is shared by every
	// campaign, so a truly cold iteration must flush it — otherwise every
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
			e := newScalarOracle(g, values)
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
			b.StartTimer()
			n := 0
			for _, v := range detects(b, g, values, universe) {
				if v {
					n++
				}
			}
			benchDetected = n
		}
	})

	scalarWarm := newScalarOracle(g, values)
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
	detects(b, g, values, universe)
	b.Run("packed/warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, v := range detects(b, g, values, universe) {
				if v {
					n++
				}
			}
			benchDetected = n
		}
	})
}

// benchGolden keeps the benchmarked Golden observable.
var benchGolden *Golden

// BenchmarkNewGolden times the golden build every cold campaign starts
// with — one traced simulation per item, recording spike trains, weighted
// sums and potentials — on the 4-layer paper model's merged program, the
// suite perfbench's cold-campaign workload builds.
func BenchmarkNewGolden(b *testing.B) {
	ts, _ := generatedSuite(b, snn.Arch{576, 256, 32, 10}, snn.ResetZero)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGolden = mustGolden(b, ts)
	}
}

// BenchmarkCollapse bounds the cost of fault collapsing itself:
//
//   - uniform collapses the 5-layer paper model's SWF universe against its
//     generated SWF program, where 166,208 faults fall into 362 classes;
//   - random collapses SWF ∪ SASF (11,008 faults) on a random-weight
//     96-48-16-8 test set, where nothing collapses;
//   - random-matrix runs DetectsMatrix over those faults on a fresh Golden,
//     so the no-collapse overhead shows against the kernel it rides on.
//
// Goldens are built outside the timed loop. The uniform and random cases
// reuse one Golden, so they time the per-call work only; random-matrix
// builds a fresh Golden per iteration, so its timing includes the lazy
// collapse index and a cold memo.
func BenchmarkCollapse(b *testing.B) {
	b.Run("uniform", func(b *testing.B) {
		arch := snn.Arch{576, 256, 64, 32, 10}
		params := snn.DefaultParams()
		gen, err := core.NewGenerator(core.Options{Arch: arch, Params: params, Values: fault.PaperValues(params.Theta)})
		if err != nil {
			b.Fatal(err)
		}
		g := mustGolden(b, gen.Generate(fault.SWF))
		universe := fault.Universe(arch, fault.SWF)
		benchCollapse(b, g, universe)
	})

	arch := snn.Arch{96, 48, 16, 8}
	ts := balancedTestSetT(arch, 2, 4, 7, 16)
	universe := append(fault.Universe(arch, fault.SWF), fault.Universe(arch, fault.SASF)...)
	b.Run("random", func(b *testing.B) {
		benchCollapse(b, mustGolden(b, ts), universe)
	})
	b.Run("random-matrix", func(b *testing.B) {
		values := fault.PaperValues(ts.Params.Theta)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := mustGolden(b, ts)
			b.StartTimer()
			benchDetected = len(detectsMatrix(b, g, values, universe))
		}
	})
}

// benchCollapse times the collapse of universe on g and reports the class
// count.
func benchCollapse(b *testing.B, g *Golden, universe []fault.Fault) {
	g.collapseIndex() // built once per Golden, not per call
	b.ReportAllocs()
	b.ResetTimer()
	var classes int
	for i := 0; i < b.N; i++ {
		classes = len(g.collapse(universe).reps)
	}
	b.ReportMetric(float64(classes), "classes")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(universe)), "ns/fault")
}
