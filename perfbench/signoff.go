package main

import (
	"fmt"
	"io"

	"neurotest"
	"neurotest/internal/compact"
	"neurotest/internal/diagnose"
	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/tester"
)

// signoff qualifies a chip family: each op generates the 5-layer paper
// model's suite, runs the five per-kind cold campaigns over the full fault
// universe (Tables 3, 5 and 6), then builds a diagnosis dictionary and
// compacts the merged program over a seeded fault sample.
var signoff = workload{
	name:      "signoff",
	clients:   1,
	warmup:    2,
	setupReps: 7,
	setup:     setupSignoff,
}

// signoffTestLength is the 5-layer model's total test length, 1+4+8+1+4.
const signoffTestLength = 18

// signoffSample is the size of the dictionary and compaction fault sample.
const signoffSample = 1024

type signoffInstance struct {
	model    *neurotest.Model
	universe [][]fault.Fault // aligned with fault.Kinds()
	sample   []fault.Fault
	memo0    faultsim.Stats
}

// setupSignoff enumerates the five universes and draws the sample from seed.
func setupSignoff(seed uint64) (instance, error) {
	m := neurotest.FiveLayerModel()
	s := &signoffInstance{model: m}
	for _, k := range fault.Kinds() {
		s.universe = append(s.universe, m.Universe(k))
	}
	s.sample = tester.SampleFaults(m.Arch, fault.Kinds(), signoffSample, mix(seed, 0))
	if len(s.sample) != signoffSample {
		return nil, fmt.Errorf("sampled %d faults, want %d", len(s.sample), signoffSample)
	}
	return s, nil
}

func (s *signoffInstance) op(_ int, tr *opTrace) error {
	tr.enter("core.generate")
	suite, err := s.model.GenerateSuite(neurotest.NoVariation())
	tr.leave()
	if err != nil {
		return err
	}
	if n := suite.TotalTestLength(); n != signoffTestLength {
		return fmt.Errorf("total test length %d, want %d", n, signoffTestLength)
	}
	campaign := func(i int, k fault.Kind) error {
		ate := tester.New(suite.PerKind[k], nil)
		if tr != nil {
			tr.enter("faultsim.golden_build")
			ate.Golden(0)
			tr.leave()
		}
		cov := ate.MeasureCoverage(s.universe[i], s.model.Values)
		if cov.Total != len(s.universe[i]) || cov.Detected != cov.Total || len(cov.Errors) > 0 {
			return fmt.Errorf("%v coverage %v, want 100 %%", k, cov)
		}
		return nil
	}
	for _, group := range []struct {
		span   string
		neuron bool
	}{{"tester.coverage_neuron", true}, {"tester.coverage_synapse", false}} {
		tr.enter(group.span)
		for i, k := range fault.Kinds() {
			if k.IsNeuronFault() != group.neuron {
				continue
			}
			if err := campaign(i, k); err != nil {
				tr.leave()
				return err
			}
		}
		tr.leave()
	}
	tr.enter("diagnose.build")
	dict := diagnose.Build(suite.Merged, s.model.Values, nil, s.sample)
	tr.leave()
	tr.enter("compact.compact")
	compacted, st := compact.Compact(suite.Merged, s.model.Values, nil, s.sample)
	tr.leave()
	if dict.Total() != len(s.sample) || st.Detected != dict.Detected() {
		return fmt.Errorf("compaction keeps %d detected faults, dictionary detects %d of %d",
			st.Detected, dict.Detected(), dict.Total())
	}
	if compacted.NumPatterns() != st.ItemsAfter || st.ItemsAfter > st.ItemsBefore {
		return fmt.Errorf("compacted program has %d items, stats say %d of %d",
			compacted.NumPatterns(), st.ItemsAfter, st.ItemsBefore)
	}
	return nil
}

func (s *signoffInstance) beginWindow() error {
	s.memo0 = faultsim.Snapshot()
	return nil
}

func (s *signoffInstance) verify(io.Writer) error { return nil }

func (s *signoffInstance) layerMetrics(_ *tracer, sum traceSummary, m map[string]float64) error {
	m["faultsim.golden_build_ms"] = sum.byName["faultsim.golden_build"].meanMS()
	m["tester.coverage_neuron_ms"] = sum.byName["tester.coverage_neuron"].meanMS()
	m["tester.coverage_synapse_ms"] = sum.byName["tester.coverage_synapse"].meanMS()
	m["core.generate_ms"] = sum.byName["core.generate"].meanMS()
	m["diagnose.build_ms"] = sum.byName["diagnose.build"].meanMS()
	m["compact.compact_ms"] = sum.byName["compact.compact"].meanMS()
	setPacking(m, s.universe...)
	m["faultsim.memo_hit_ratio"] = memoDelta(s.memo0)
	return nil
}

func (s *signoffInstance) close() error { return nil }

// mix derives the i-th input seed of a run from its workload seed
// (SplitMix64 finalizer), so inputs drawn for different purposes stay
// independent.
func mix(seed uint64, i int) uint64 {
	z := seed + 0x9E3779B97F4A7C15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
