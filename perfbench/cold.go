package main

import (
	"fmt"
	"io"

	"neurotest"
	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
	"neurotest/internal/tester"
)

// coldCampaign is the first coverage campaign on a new artifact: each op
// builds fresh test equipment for the 4-layer paper model's merged program
// and fault-simulates the whole neuron-fault universe, golden build included.
var coldCampaign = workload{
	name:      "cold-campaign",
	clients:   1,
	warmup:    50,
	setupReps: 15,
	setup:     setupCold,
}

type coldInstance struct {
	model  *neurotest.Model
	merged *pattern.TestSet
	faults []fault.Fault
	memo0  faultsim.Stats
}

// setupCold generates the suite and enumerates the NASF, ESF and HSF
// universes. The campaign has no seeded input: the faults stay in
// enumeration order, because reordering them regroups the packed lanes and
// changes the work.
func setupCold(uint64) (instance, error) {
	m := neurotest.FourLayerModel()
	suite, err := m.GenerateSuite(neurotest.NoVariation())
	if err != nil {
		return nil, err
	}
	var faults []fault.Fault
	for _, k := range fault.NeuronKinds() {
		faults = append(faults, m.Universe(k)...)
	}
	return &coldInstance{model: m, merged: suite.Merged, faults: faults}, nil
}

func (c *coldInstance) op(_ int, tr *opTrace) error {
	tr.enter("tester.new")
	ate := tester.New(c.merged, nil)
	tr.leave()
	if tr != nil {
		// Untraced ops build the goldens inside MeasureCoverage; a traced op
		// builds them first so the two phases time apart.
		tr.enter("faultsim.golden_build")
		ate.Golden(0)
		tr.leave()
	}
	tr.enter("tester.coverage")
	cov := ate.MeasureCoverage(c.faults, c.model.Values)
	tr.leave()
	if cov.Total != len(c.faults) || cov.Detected != cov.Total || len(cov.Errors) > 0 {
		return fmt.Errorf("coverage %v, want all %d faults detected", cov, len(c.faults))
	}
	return nil
}

func (c *coldInstance) beginWindow() error {
	c.memo0 = faultsim.Snapshot()
	return nil
}

func (c *coldInstance) verify(io.Writer) error { return nil }

func (c *coldInstance) layerMetrics(tr *tracer, sum traceSummary, m map[string]float64) error {
	// RunTrace alone, over every item, as many times as ops were traced.
	for i := 0; i < min(sum.ops, 200); i++ {
		runTraceProbe(tr, c.merged)
	}
	sum = tr.summarize()
	build := sum.byName["faultsim.golden_build"].meanMS()
	runTrace := sum.byName["snn.run_trace"].meanMS()
	m["faultsim.golden_build_ms"] = build
	m["snn.run_trace_ms"] = runTrace
	m["faultsim.golden_replay_ms"] = build - runTrace
	m["tester.coverage_ms"] = sum.byName["tester.coverage"].meanMS()
	setPacking(m, c.faults)
	m["faultsim.memo_hit_ratio"] = memoDelta(c.memo0)
	return nil
}

func (c *coldInstance) close() error { return nil }

// runTraceProbe times snn.Simulator.RunTrace over every item of ts, the
// good-chip simulation a golden build performs before its replay.
func runTraceProbe(tr *tracer, ts *pattern.TestSet) {
	p := tr.probe()
	p.enter("snn.run_trace")
	sims := make([]*snn.Simulator, len(ts.Configs))
	for i, cfg := range ts.Configs {
		sims[i] = snn.NewSimulator(cfg)
	}
	for _, it := range ts.Items {
		sims[it.ConfigIndex].RunTrace(it.Pattern, it.Timesteps, it.Mode(), nil)
	}
	p.leave()
	p.finish()
}

// memoDelta is the downstream-memo hit ratio of the fault simulations run
// since s0, read from the counters faultsim exports.
func memoDelta(s0 faultsim.Stats) float64 {
	s := faultsim.Snapshot()
	hits, misses := s.MemoHits-s0.MemoHits, s.MemoMisses-s0.MemoMisses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// setPacking sets the packed-group count of one op's faults and how full
// their 64-lane groups are.
func setPacking(m map[string]float64, faults ...[]fault.Fault) {
	groups, n := 0, 0
	for _, fs := range faults {
		groups += len(faultsim.PackGroups(fs))
		n += len(fs)
	}
	m["faultsim.packed_groups"] = float64(groups)
	if groups > 0 {
		m["faultsim.lane_fill_pct"] = 100 * float64(n) / float64(64*groups)
	}
}
