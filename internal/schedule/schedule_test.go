package schedule

import (
	"context"
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

// interleavedSet builds a program whose items alternate between configs —
// the worst case for reprogramming cost.
func interleavedSet(t *testing.T) *pattern.TestSet {
	t.Helper()
	arch := snn.Arch{4, 3}
	params := snn.DefaultParams()
	ts := pattern.NewTestSet("interleaved", arch, params)
	rng := stats.NewRNG(3)
	for c := 0; c < 3; c++ {
		cfg := snn.New(arch, params)
		for b := range cfg.W {
			for i := range cfg.W[b] {
				cfg.W[b][i] = -10 + 20*rng.Float64()
			}
		}
		ts.AddConfig(cfg)
	}
	for p := 0; p < 9; p++ {
		pat := snn.NewPattern(4)
		pat[p%4] = true
		ts.AddItem(pattern.Item{
			Label:       "p",
			ConfigIndex: p % 3, // 0,1,2,0,1,2,... maximally interleaved
			Pattern:     pat,
			Timesteps:   3,
			Repeat:      2,
		})
	}
	return ts
}

func TestProgrammingsAndCost(t *testing.T) {
	ts := interleavedSet(t)
	if got := Programmings(ts); got != 9 {
		t.Errorf("interleaved programmings = %d, want 9", got)
	}
	c := DefaultCostModel()
	// 9 programmings x 12 weights x 1 + 9 items x 2 repeats x 10.
	if got := c.Cost(ts); got != 9*12+9*2*10 {
		t.Errorf("cost = %g, want %g", got, float64(9*12+9*2*10))
	}
}

func TestGroupReachesLowerBound(t *testing.T) {
	ts := interleavedSet(t)
	out, rep := Optimize(ts, DefaultCostModel())
	if rep.ProgrammingsAfter != 3 {
		t.Errorf("grouped programmings = %d, want 3 (one per config)", rep.ProgrammingsAfter)
	}
	if rep.CostAfter >= rep.CostBefore {
		t.Errorf("no cost reduction: %g -> %g", rep.CostBefore, rep.CostAfter)
	}
	if rep.Speedup() <= 1 {
		t.Errorf("speedup = %g", rep.Speedup())
	}
	if err := Verify(ts, out); err != nil {
		t.Fatalf("schedule not a permutation: %v", err)
	}
	// Stability: configurations keep first-appearance order, and within a
	// configuration patterns keep relative order.
	wantCfg := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	for i, it := range out.Items {
		if it.ConfigIndex != wantCfg[i] {
			t.Fatalf("item %d config %d, want %d", i, it.ConfigIndex, wantCfg[i])
		}
	}
}

func TestGroupPreservesCoverage(t *testing.T) {
	ts := interleavedSet(t)
	values := fault.PaperValues(0.5)
	universe := fault.Universe(ts.Arch, fault.SWF)
	before := coverage(t, ts, values, universe)
	out := Group(ts)
	after := coverage(t, out, values, universe)
	if before != after {
		t.Errorf("coverage changed: %d -> %d", before, after)
	}
}

func TestVerifyCatchesTampering(t *testing.T) {
	ts := interleavedSet(t)
	out := Group(ts)
	out.Items = out.Items[:len(out.Items)-1]
	if err := Verify(ts, out); err == nil {
		t.Errorf("dropped item not caught")
	}
	out = Group(ts)
	out.Items[0].Repeat = 99
	if err := Verify(ts, out); err == nil {
		t.Errorf("mutated repeat not caught")
	}
	other := pattern.NewTestSet("x", snn.Arch{2, 2}, snn.DefaultParams())
	if err := Verify(ts, other); err == nil {
		t.Errorf("architecture change not caught")
	}
}

func TestAlreadyGroupedIsNoop(t *testing.T) {
	ts := interleavedSet(t)
	grouped := Group(ts)
	again, rep := Optimize(grouped, DefaultCostModel())
	if rep.ProgrammingsBefore != rep.ProgrammingsAfter {
		t.Errorf("grouped set regressed: %+v", rep)
	}
	if err := Verify(grouped, again); err != nil {
		t.Errorf("idempotent grouping broke: %v", err)
	}
}

// coverage fault-simulates universe against ts and returns how many faults
// it detects.
func coverage(t *testing.T, ts *pattern.TestSet, values fault.Values, universe []fault.Fault) int {
	t.Helper()
	n, err := faultsim.NewGolden(ts, nil).NewEvaluator(values).Coverage(context.Background(), universe)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
