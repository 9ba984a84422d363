package tester

import (
	"fmt"
	"testing"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/snn"
	"neurotest/internal/unreliable"
	"neurotest/internal/variation"
)

// A campaign sharded K ways and re-assembled must equal the single-node
// campaign *bit-identically* — integer tallies AND the derived float rates;
// the cluster coordinator depends on it. These property-style tests sweep
// shard counts and partition shapes (contiguous and strided, including
// empty and single shards) and compare with == / != on the floats on
// purpose: "no float drift" is the property.

// partitionContiguous splits [0, n) into k contiguous slices (some possibly
// empty when k > n).
func partitionContiguous(n, k int) [][]int {
	shards := make([][]int, k)
	for i := 0; i < n; i++ {
		s := i * k / n
		if s >= k {
			s = k - 1
		}
		shards[s] = append(shards[s], i)
	}
	return shards
}

// partitionStrided deals [0, n) round-robin across k shards — the shape a
// hash ring produces, where consecutive global indices land on different
// workers.
func partitionStrided(n, k int) [][]int {
	shards := make([][]int, k)
	for i := 0; i < n; i++ {
		shards[i%k] = append(shards[i%k], i)
	}
	return shards
}

func partitions(n, k int) map[string][][]int {
	return map[string][][]int{
		"contiguous": partitionContiguous(n, k),
		"strided":    partitionStrided(n, k),
	}
}

// TestMergeCoveragePartitionsExactly campaigns over every shard of a
// partition and sums the shard results, as the coordinator does with its
// workers' replies: the sums, and the set of undetected faults, equal the
// whole campaign's. Shards pack different faults into the kernel's lane
// groups, so this pins that a fault's verdict does not depend on which
// faults share its group.
func TestMergeCoveragePartitionsExactly(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	// A mixed universe with known undetected entries is more interesting
	// than the all-detected one, so include a couple of duplicate faults of
	// the weakest kind plus every model's full universe.
	var faults []fault.Fault
	for _, kind := range fault.Kinds() {
		faults = append(faults, fault.Universe(arch, kind)...)
	}
	values := g.Options().Values
	whole := ate.MeasureCoverage(faults, values)

	for k := 1; k <= 5; k++ {
		for shape, shards := range partitions(len(faults), k) {
			t.Run(fmt.Sprintf("%s-k%d", shape, k), func(t *testing.T) {
				var got CoverageResult
				for _, idx := range shards {
					sub := make([]fault.Fault, len(idx))
					for j, i := range idx {
						sub[j] = faults[i]
					}
					part := ate.MeasureCoverage(sub, values)
					got.Total += part.Total
					got.Detected += part.Detected
					got.Undetected = append(got.Undetected, part.Undetected...)
					got.Errors = append(got.Errors, part.Errors...)
				}
				if got.Total != whole.Total || got.Detected != whole.Detected {
					t.Fatalf("merged tally %d/%d, want %d/%d",
						got.Detected, got.Total, whole.Detected, whole.Total)
				}
				if got.Coverage() != whole.Coverage() {
					t.Fatalf("merged Coverage() = %v, want bit-identical %v",
						got.Coverage(), whole.Coverage())
				}
				if len(got.Undetected) != len(whole.Undetected) {
					t.Fatalf("merged %d undetected, want %d",
						len(got.Undetected), len(whole.Undetected))
				}
				missed := make(map[fault.Fault]bool, len(whole.Undetected))
				for _, f := range whole.Undetected {
					missed[f] = true
				}
				for _, f := range got.Undetected {
					if !missed[f] {
						t.Fatalf("%v undetected in its shard, detected in the whole campaign", f)
					}
				}
				if len(got.Errors) != len(whole.Errors) {
					t.Fatalf("merged %d errors, want %d", len(got.Errors), len(whole.Errors))
				}
			})
		}
	}
}

func TestMergeSessionStatsPartitionsExactly(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	faults := fault.Universe(arch, fault.NASF)
	// Alternate defective and defect-free dies so every outcome bin fills.
	mods := func(i int) *snn.Modifiers {
		if i%3 == 0 {
			return faults[i%len(faults)].Modifiers(g.Options().Values)
		}
		return nil
	}
	prof := unreliable.Profile{
		Intermittence: unreliable.Intermittence{P: 0.6},
		Readout:       unreliable.Readout{DropP: 0.1},
	}
	policy := RetestPolicy{MaxRetests: 3, Vote: true}
	const nChips, seed = 30, 1234

	whole := ate.MeasureSessions(nChips, mods, prof, variation.None(), policy, seed)
	if whole.Chips != nChips {
		t.Fatalf("whole campaign ran %d chips, want %d", whole.Chips, nChips)
	}
	if whole.Fail == 0 || whole.Pass == 0 {
		t.Fatalf("degenerate population (pass=%d fail=%d quarantine=%d): test would prove nothing",
			whole.Pass, whole.Fail, whole.Quarantine)
	}

	for k := 1; k <= 5; k++ {
		for shape, shards := range partitions(nChips, k) {
			t.Run(fmt.Sprintf("%s-k%d", shape, k), func(t *testing.T) {
				parts := make([]SessionStats, 0, k)
				for _, idx := range shards {
					part, err := ate.MeasureSessionsAtContext(
						t.Context(), idx, mods, prof, variation.None(), policy, seed)
					if err != nil {
						t.Fatal(err)
					}
					parts = append(parts, part)
				}
				got := MergeSessionStats(parts...)
				if !sameSessionInts(got, whole) {
					t.Fatalf("merged stats = %+v, want %+v", got, whole)
				}
				// Derived rates are ratios of identical integers: bit-equal.
				if got.PassRate() != whole.PassRate() ||
					got.FailRate() != whole.FailRate() ||
					got.QuarantineRate() != whole.QuarantineRate() ||
					got.Amplification() != whole.Amplification() {
					t.Fatalf("merged rates drifted: %v/%v/%v amp %v, want %v/%v/%v amp %v",
						got.PassRate(), got.FailRate(), got.QuarantineRate(), got.Amplification(),
						whole.PassRate(), whole.FailRate(), whole.QuarantineRate(), whole.Amplification())
				}
			})
		}
	}
}

// sameSessionInts compares every integer field of two SessionStats (the
// Errors slice carries diagnostics, not tallies, and both sides must be
// error-free here anyway).
func sameSessionInts(a, b SessionStats) bool {
	return a.Chips == b.Chips &&
		a.Pass == b.Pass && a.Fail == b.Fail && a.Quarantine == b.Quarantine &&
		a.ItemsRun == b.ItemsRun && a.BaselineItems == b.BaselineItems &&
		a.Retests == b.Retests && a.DroppedReads == b.DroppedReads &&
		a.BudgetSpent == b.BudgetSpent &&
		len(a.Errors) == len(b.Errors)
}

func TestMergeSessionStatsEdges(t *testing.T) {
	if got := MergeSessionStats(); got.Chips != 0 || got.PassRate() != 0 {
		t.Errorf("zero-shard merge = %+v", got)
	}
	one := SessionStats{Chips: 4, Pass: 2, Fail: 1, Quarantine: 1, ItemsRun: 40, BaselineItems: 32, Retests: 8}
	if got := MergeSessionStats(one); !sameSessionInts(got, one) {
		t.Errorf("single-shard merge = %+v, want %+v", got, one)
	}
	if got := MergeSessionStats(SessionStats{}, one, SessionStats{}); !sameSessionInts(got, one) {
		t.Errorf("empty shards disturbed the merge: %+v", got)
	}
}
