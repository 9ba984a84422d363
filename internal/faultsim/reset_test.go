package faultsim

import (
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

// randomTestSetMode mirrors randomTestSet but with a chosen reset mode.
func randomTestSetMode(arch snn.Arch, nConfigs, patternsPer int, seed uint64, mode snn.ResetMode) *pattern.TestSet {
	params := snn.DefaultParams()
	params.Reset = mode
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
			ts.AddItem(pattern.Item{Label: "rnd", ConfigIndex: ci, Pattern: pat, Timesteps: 6, Repeat: 1})
		}
	}
	return ts
}

// TestBruteForceEquivalenceResetSubtract re-runs the load-bearing
// engine-vs-brute-force cross-validation under the subtract reset mode,
// where retained overdrive makes multi-spike trains common.
func TestBruteForceEquivalenceResetSubtract(t *testing.T) {
	values := fault.PaperValues(0.5)
	for seed := uint64(0); seed < 6; seed++ {
		arch := snn.Arch{5, 4, 3, 2}
		ts := randomTestSetMode(arch, 2, 3, 200+seed, snn.ResetSubtract)
		eng := NewGolden(ts, nil).NewEvaluator(values)
		universe := fullUniverse(arch)
		for i, got := range detectsBatch(t, eng, universe) {
			if want := bruteForce(ts, values, universe[i]); got != want {
				t.Fatalf("seed %d %v: engine=%v brute=%v", seed, universe[i], got, want)
			}
		}
	}
}

// bruteForceMode mirrors bruteForce but honours each item's input mode.
func bruteForceMode(ts *pattern.TestSet, values fault.Values, f fault.Fault) bool {
	for _, it := range ts.Items {
		net := ts.Configs[it.ConfigIndex]
		sim := snn.NewSimulator(net)
		golden := sim.Run(it.Pattern, it.Timesteps, it.Mode(), nil)
		faulty := sim.Run(it.Pattern, it.Timesteps, it.Mode(), f.Modifiers(values))
		if !faulty.Equal(golden) {
			return true
		}
	}
	return false
}

// TestBruteForceEquivalenceHeldPatterns re-runs the cross-validation with
// rate-coded (held) stimuli, where every timestep carries fresh charge and
// multi-spike trains are the norm.
func TestBruteForceEquivalenceHeldPatterns(t *testing.T) {
	values := fault.PaperValues(0.5)
	for seed := uint64(0); seed < 6; seed++ {
		arch := snn.Arch{5, 4, 3}
		ts := randomTestSetMode(arch, 2, 3, 300+seed, snn.ResetZero)
		for i := range ts.Items {
			ts.Items[i].Hold = true
		}
		eng := NewGolden(ts, nil).NewEvaluator(values)
		universe := fullUniverse(arch)
		for i, got := range detectsBatch(t, eng, universe) {
			if want := bruteForceMode(ts, values, universe[i]); got != want {
				t.Fatalf("seed %d %v (held): engine=%v brute=%v", seed, universe[i], got, want)
			}
		}
	}
}
