package faultsim

import (
	"context"
	"testing"
	"testing/quick"

	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

// bruteForce is the reference implementation: full simulation of every item
// with the fault injected via simulator modifiers.
func bruteForce(ts *pattern.TestSet, values fault.Values, f fault.Fault) bool {
	for _, it := range ts.Items {
		net := ts.Configs[it.ConfigIndex]
		sim := snn.NewSimulator(net)
		golden := sim.Run(it.Pattern, it.Timesteps, snn.ApplyOnce, nil)
		faulty := sim.Run(it.Pattern, it.Timesteps, snn.ApplyOnce, f.Modifiers(values))
		if !faulty.Equal(golden) {
			return true
		}
	}
	return false
}

// randomTestSet builds a test set of random configurations and patterns.
func randomTestSet(arch snn.Arch, nConfigs, patternsPer int, seed uint64) *pattern.TestSet {
	params := snn.DefaultParams()
	rng := stats.NewRNG(seed)
	ts := pattern.NewTestSet("random", arch, params)
	for c := 0; c < nConfigs; c++ {
		cfg := snn.New(arch, params)
		for b := range cfg.W {
			for i := range cfg.W[b] {
				cfg.W[b][i] = -10 + 20*rng.Float64()
			}
		}
		ci := ts.AddConfig(cfg)
		for p := 0; p < patternsPer; p++ {
			pat := snn.NewPattern(arch.Inputs())
			for i := range pat {
				pat[i] = rng.Float64() < 0.4
			}
			ts.AddItem(pattern.Item{
				Label:       "rnd",
				ConfigIndex: ci,
				Pattern:     pat,
				Timesteps:   5,
				Repeat:      1,
			})
		}
	}
	return ts
}

// TestBruteForceEquivalence is the load-bearing cross-validation: the
// packed kernel must agree with full simulation on EVERY fault of every
// model over random configurations and patterns.
func TestBruteForceEquivalence(t *testing.T) {
	values := fault.PaperValues(0.5)
	arches := []snn.Arch{
		{4, 3, 2},
		{5, 4, 3, 2},
		{3, 1, 3}, // width-1 bottleneck
		{6, 5, 4, 3, 2},
	}
	for ai, arch := range arches {
		ts := randomTestSet(arch, 3, 4, uint64(100+ai))
		g := mustGolden(t, ts)
		for _, kind := range fault.Kinds() {
			universe := fault.Universe(arch, kind)
			for i, got := range detects(t, g, values, universe) {
				if want := bruteForce(ts, values, universe[i]); got != want {
					t.Errorf("%v %v: engine=%v brute=%v", arch, universe[i], got, want)
				}
			}
		}
	}
}

// TestBruteForceEquivalenceQuick drives the same equivalence with random
// seeds via testing/quick.
func TestBruteForceEquivalenceQuick(t *testing.T) {
	values := fault.PaperValues(0.5)
	arch := snn.Arch{4, 3, 3, 2}
	f := func(seed uint64) bool {
		ts := randomTestSet(arch, 2, 3, seed)
		g := mustGolden(t, ts)
		for _, kind := range fault.Kinds() {
			universe := fault.Universe(arch, kind)
			for i, got := range detects(t, g, values, universe) {
				if got != bruteForce(ts, values, universe[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestDetectingItemOrder pins the matrix row order: the lowest item set in
// a DetectsMatrix row is the first item the oracle's in-order scan finds.
func TestDetectingItemOrder(t *testing.T) {
	values := fault.PaperValues(0.5)
	arch := snn.Arch{4, 3, 2}
	ts := randomTestSet(arch, 3, 3, 7)
	universe := fault.Universe(arch, SWFKindForTest())
	rows := detectsMatrix(t, mustGolden(t, ts), values, universe)
	oracle := newScalarOracle(mustGolden(t, ts), values)
	for fi, f := range universe {
		first := -1
		for i := range ts.Items {
			if matrixHas(rows[fi], i) {
				first = i
				break
			}
		}
		if want := oracle.DetectingItem(f); first != want {
			t.Fatalf("%v: first matrix item %d, oracle DetectingItem %d", f, first, want)
		}
	}
}

// SWFKindForTest avoids exporting fault kinds through this package.
func SWFKindForTest() fault.Kind { return fault.SWF }

func TestStuckAtProgrammedValueUndetectable(t *testing.T) {
	// A SWF whose stuck value equals the programmed weight changes nothing.
	values := fault.Values{ESFTheta: 0.05, HSFTheta: 0.95, SWFOmega: 1.0}
	arch := snn.Arch{2, 2}
	params := snn.DefaultParams()
	ts := pattern.NewTestSet("t", arch, params)
	cfg := snn.New(arch, params)
	cfg.Fill(1.0) // every weight already equals ω̂
	ci := ts.AddConfig(cfg)
	ts.AddItem(pattern.Item{Label: "p", ConfigIndex: ci, Pattern: snn.OnesPattern(2), Timesteps: 3, Repeat: 1})
	universe := fault.Universe(arch, fault.SWF)
	for i, det := range detects(t, mustGolden(t, ts), values, universe) {
		if det {
			t.Errorf("%v detected despite no behavioural change", universe[i])
		}
	}
}

func TestZeroWeightSASFUndetectable(t *testing.T) {
	values := fault.PaperValues(0.5)
	arch := snn.Arch{2, 2}
	params := snn.DefaultParams()
	ts := pattern.NewTestSet("t", arch, params)
	cfg := snn.New(arch, params) // all-zero weights
	ci := ts.AddConfig(cfg)
	ts.AddItem(pattern.Item{Label: "p", ConfigIndex: ci, Pattern: snn.OnesPattern(2), Timesteps: 3, Repeat: 1})
	universe := fault.Universe(arch, fault.SASF)
	for i, det := range detects(t, mustGolden(t, ts), values, universe) {
		if det {
			t.Errorf("%v detected despite zero weight", universe[i])
		}
	}
}

func TestUndetectedAndCoverage(t *testing.T) {
	values := fault.PaperValues(0.5)
	arch := snn.Arch{3, 2, 2}
	ts := randomTestSet(arch, 2, 3, 5)
	g := mustGolden(t, ts)
	universe := fault.Universe(arch, fault.SWF)
	missed := undetected(t, g, values, universe)
	v, err := g.Detects(context.Background(), values, universe)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for i := range universe {
		if det, _ := v.Detected(i); det {
			got++
		}
	}
	if got != len(universe)-len(missed) || len(missed) == 0 {
		t.Errorf("%d detected, universe %d, missed %d", got, len(universe), len(missed))
	}
	oracle := newScalarOracle(g, values)
	for _, f := range missed {
		if oracle.Detects(f) {
			t.Errorf("%v both missed and detected", f)
		}
	}
}

func TestTransformAppliesToConfigs(t *testing.T) {
	// NewGolden simulates the configurations it is given: a test set whose
	// configurations are zeroed copies must make every fault except NASF
	// undetectable (no charge flows anywhere; NASF still forces spikes but
	// cannot propagate, and on output neurons it IS detectable).
	values := fault.PaperValues(0.5)
	arch := snn.Arch{3, 2, 2}
	ts := randomTestSet(arch, 1, 2, 3)
	zeroed := *ts
	zeroed.Configs = make([]*snn.Network, len(ts.Configs))
	for i, cfg := range ts.Configs {
		zeroed.Configs[i] = cfg.Clone()
		zeroed.Configs[i].Fill(0)
	}
	g := mustGolden(t, &zeroed)
	swf := fault.Universe(arch, fault.SWF)
	swfDet := detects(t, g, values, swf)
	for i, f := range swf {
		// SWF: weight stuck at ω̂=1 from zero → detectable only via firing
		// chain; charge of 1 > θ on first hop, but propagation weights are
		// all zero, so only faults feeding output neurons detect.
		if f.Synapse.Boundary == arch.Boundaries()-1 {
			continue // may legitimately detect on output neurons
		}
		if swfDet[i] {
			t.Errorf("%v detected through zeroed network", f)
		}
	}
	nasf := fault.Universe(arch, fault.NASF)
	for i, got := range detects(t, g, values, nasf) {
		f := nasf[i]
		want := f.Neuron.Layer == len(arch)-1 // only output-layer NASF observable
		if got != want {
			t.Errorf("NASF %v: detect=%v, want %v", f, got, want)
		}
	}
}

// TestMatrixShape pins the DetectsMatrix layout on a set wider than one
// word: one row per fault, ceil(items/64) words per row, no bit beyond the
// last item, and every (fault, item) bit equal to the oracle's verdict.
func TestMatrixShape(t *testing.T) {
	values := fault.PaperValues(0.5)
	arch := snn.Arch{3, 3, 2}
	ts := randomTestSet(arch, 5, 14, 1) // 70 items: two words per row
	universe := fullUniverse(arch)
	rows := detectsMatrix(t, mustGolden(t, ts), values, universe)
	assertMatrixMatchesOracle(t, rows, newScalarOracle(mustGolden(t, ts), values), universe)
	if rows, err := mustGolden(t, ts).DetectsMatrix(context.Background(), values, nil); err != nil || len(rows) != 0 {
		t.Errorf("empty universe: %d rows, err %v", len(rows), err)
	}
}
