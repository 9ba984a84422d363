package compact

import (
	"context"
	"strings"
	"testing"

	"neurotest/internal/baseline"
	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
	"neurotest/internal/tester"
)

func proposedSuite(t *testing.T, arch snn.Arch) (*core.Generator, *pattern.TestSet) {
	t.Helper()
	params := snn.DefaultParams()
	g, err := core.NewGenerator(core.Options{
		Arch:   arch,
		Params: params,
		Values: fault.PaperValues(params.Theta),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, merged := g.GenerateAll()
	return g, merged
}

func allFaults(arch snn.Arch) []fault.Fault {
	var out []fault.Fault
	for _, k := range fault.Kinds() {
		out = append(out, fault.Universe(arch, k)...)
	}
	return out
}

// TestProposedPerKindIrredundancy checks which of the deterministic O(L)
// sets are irredundant against their own fault universe. NASF, SASF, ESF
// and SWF sets are: each item is the unique detector of its target group.
// HSF is the interesting exception — when a layer width leaves a small
// final covering group, that group's faults are already exposed by the
// *ancillary* role those neurons play in sibling groups (an HSF ancillary
// fails to fire and flips Ω), so compaction may drop the final group.
func TestProposedPerKindIrredundancy(t *testing.T) {
	for _, arch := range []snn.Arch{{8, 6, 4}, {9, 7, 5, 3}, {6, 5, 4, 3, 2}} {
		g, _ := proposedSuite(t, arch)
		for _, k := range []fault.Kind{fault.NASF, fault.SASF, fault.ESF, fault.SWF} {
			ts := g.Generate(k)
			if _, st := compactOn(t, ts, g.Options().Values, fault.Universe(arch, k)); st.ItemsAfter != st.ItemsBefore {
				t.Errorf("%v %v: per-kind set is redundant", arch, k)
			}
		}
		// HSF: compaction must preserve coverage; it may shave items.
		hsf := g.Generate(fault.HSF)
		universe := fault.Universe(arch, fault.HSF)
		compacted, st := compactOn(t, hsf, g.Options().Values, universe)
		if st.Detected != len(universe) {
			t.Fatalf("%v HSF: %d/%d detected", arch, st.Detected, len(universe))
		}
		if got := coverage(t, compacted, g.Options().Values, universe); got != len(universe) {
			t.Errorf("%v HSF: compaction lost coverage (%d/%d)", arch, got, len(universe))
		}
	}
}

// TestMergedProgramCompaction documents the cross-kind redundancy of the
// merged program: the NASF item, for example, detects only faults that the
// remaining items also expose, so coverage-preserving compaction can trim
// the 13-item program while keeping 100 % coverage of all five models.
func TestMergedProgramCompaction(t *testing.T) {
	arch := snn.Arch{9, 7, 5, 3}
	g, merged := proposedSuite(t, arch)
	universe := allFaults(arch)
	compacted, st := compactOn(t, merged, g.Options().Values, universe)
	if st.ItemsAfter > st.ItemsBefore {
		t.Fatalf("compaction grew the program: %+v", st)
	}
	if got := coverage(t, compacted, g.Options().Values, universe); got != len(universe) {
		t.Errorf("compacted program covers %d/%d", got, len(universe))
	}
}

func TestCompactRemovesDuplicates(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	g, merged := proposedSuite(t, arch)
	universe := allFaults(arch)

	// Pad the program with a duplicate of every item: regenerate the
	// (deterministic) suite and append the first copy to it.
	_, padded := proposedSuite(t, arch)
	padded.Merge(merged)
	if padded.NumPatterns() != 2*merged.NumPatterns() {
		t.Fatal("padding failed")
	}

	compacted, st := compactOn(t, padded, g.Options().Values, universe)
	if st.ItemsAfter != merged.NumPatterns() {
		t.Errorf("compacted to %d items, want %d", st.ItemsAfter, merged.NumPatterns())
	}
	if st.ItemsBefore != padded.NumPatterns() {
		t.Errorf("ItemsBefore = %d", st.ItemsBefore)
	}
	if st.ConfigsAfter >= st.ConfigsBefore {
		t.Errorf("configs not reduced: %d -> %d", st.ConfigsBefore, st.ConfigsAfter)
	}
	if err := compacted.Validate(); err != nil {
		t.Fatalf("compacted set invalid: %v", err)
	}

	// Coverage preserved exactly.
	if got := coverage(t, compacted, g.Options().Values, universe); got != st.Detected {
		t.Errorf("coverage after compaction %d, want %d", got, st.Detected)
	}
	if st.Detected != len(universe) {
		t.Errorf("proposed program detected %d/%d", st.Detected, len(universe))
	}
}

func TestCompactBaselineSet(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	params := snn.DefaultParams()
	values := fault.PaperValues(params.Theta)
	opt := baseline.ATCPGOptions(arch, params, values, 5)
	opt.NumConfigs = 4
	opt.PatternsPerConfig = 30
	opt.FaultSample = 150
	ts, err := baseline.Generate("atcpg", fault.SWF, opt)
	if err != nil {
		t.Fatal(err)
	}
	universe := fault.Universe(arch, fault.SWF)

	before := coverage(t, ts, values, universe)
	compacted, st := compactOn(t, ts, values, universe)
	after := coverage(t, compacted, values, universe)
	if before != after {
		t.Errorf("coverage changed: %d -> %d", before, after)
	}
	if st.ItemsAfter > st.ItemsBefore {
		t.Errorf("compaction grew the set: %+v", st)
	}
}

func TestCompactPreservesOrderAndMetadata(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	g, merged := proposedSuite(t, arch)
	compacted, _ := Compact(merged, g.Options().Values, nil, allFaults(arch))
	// Irredundant input: identical item sequence with remapped configs.
	if compacted.NumPatterns() != merged.NumPatterns() {
		t.Fatalf("item count changed")
	}
	for i := range merged.Items {
		a, b := merged.Items[i], compacted.Items[i]
		if a.Label != b.Label || a.Timesteps != b.Timesteps || a.Repeat != b.Repeat {
			t.Errorf("item %d metadata changed: %+v vs %+v", i, a, b)
		}
	}
}

// compactOn is CompactOn over an ideal ATE of ts under a background
// context, failing t on an error.
func compactOn(t *testing.T, ts *pattern.TestSet, values fault.Values, universe []fault.Fault) (*pattern.TestSet, Stats) {
	t.Helper()
	out, st, err := CompactOn(context.Background(), tester.New(ts, nil), values, universe)
	if err != nil {
		t.Fatal(err)
	}
	return out, st
}

// TestCompactOnRejectsFaultOutsideChip: a fault outside the architecture
// fails compaction with an error naming it before any Golden is built, and
// Compact, the wrapper, panics with that error.
func TestCompactOnRejectsFaultOutsideChip(t *testing.T) {
	arch := snn.Arch{12, 8, 4}
	g, merged := proposedSuite(t, arch)
	bogus := fault.NewSynapseFault(fault.SWF, snn.SynapseID{Boundary: 0, Pre: 98, Post: 0})
	universe := append(fault.Universe(arch, fault.NASF), bogus)
	before := faultsim.Snapshot().GoldenBuilds
	out, _, err := CompactOn(context.Background(), tester.New(merged, nil), g.Options().Values, universe)
	if out != nil || err == nil || !strings.Contains(err.Error(), bogus.String()) {
		t.Errorf("compacted %v, error %v; want a rejection naming %v", out, err, bogus)
	}
	if n := faultsim.Snapshot().GoldenBuilds - before; n != 0 {
		t.Errorf("%d Goldens built before the rejection", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("Compact over a fault outside the chip did not panic")
		}
	}()
	Compact(merged, g.Options().Values, nil, universe)
}

// coverage fault-simulates universe against ts and returns how many faults
// it detects.
func coverage(t *testing.T, ts *pattern.TestSet, values fault.Values, universe []fault.Fault) int {
	t.Helper()
	g, err := faultsim.NewGolden(ts)
	if err != nil {
		t.Fatal(err)
	}
	v, err := g.Detects(context.Background(), values, universe)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := range universe {
		if det, _ := v.Detected(i); det {
			n++
		}
	}
	return n
}
