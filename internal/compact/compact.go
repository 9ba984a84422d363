// Package compact implements static test-set compaction: dropping test
// items whose detected faults are all covered by other items, without
// losing coverage of a reference fault universe.
//
// The deterministic O(L) sets of internal/core are irredundant by
// construction (each item is the unique detector of its target group —
// asserted by tests), so compaction is a no-op on them. It earns its keep
// on statistical baseline sets and on merged/concatenated programs, where
// greedy per-model selection leaves cross-model redundancy.
//
// The algorithm is the classic reverse-order elimination: walk items from
// last to first and drop any whose detected faults all have another
// detector among the currently kept items. It preserves coverage exactly
// and never increases the item count.
package compact

import (
	"context"

	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/pattern"
)

// Stats reports what compaction achieved.
type Stats struct {
	ItemsBefore   int
	ItemsAfter    int
	ConfigsBefore int
	ConfigsAfter  int
	// Detected is the number of universe faults the set detects (unchanged
	// by compaction).
	Detected int
}

// Compact returns a coverage-preserving subset of ts with redundant items
// removed, plus statistics. universe defines the faults whose coverage must
// be preserved; transform optionally quantizes configurations the way the
// target chip would (compaction decisions must match deployment
// conditions). Unreferenced configurations are dropped from the result.
func Compact(ts *pattern.TestSet, values fault.Values, transform faultsim.ConfigTransform, universe []fault.Fault) (*pattern.TestSet, Stats) {
	//lint:ignore unchecked-error context.TODO() never cancels, and cancellation is the only error DetectsMatrix returns
	rows, _ := faultsim.NewGolden(ts, transform).NewEvaluator(values).DetectsMatrix(context.TODO(), universe)
	n := len(ts.Items)
	st := Stats{ItemsBefore: n, ConfigsBefore: ts.NumConfigs()}

	// Detection lists and per-fault multiplicity.
	detects := make([][]int, n) // item -> universe indices it detects
	mult := make([]int, len(universe))
	for fi, row := range rows {
		for it := 0; it < n; it++ {
			if row[it/64]&(1<<uint(it%64)) != 0 {
				detects[it] = append(detects[it], fi)
				mult[fi]++
			}
		}
		if mult[fi] > 0 {
			st.Detected++
		}
	}

	// Reverse-order elimination.
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = true
	}
	for it := n - 1; it >= 0; it-- {
		removable := true
		for _, fi := range detects[it] {
			if mult[fi] <= 1 {
				removable = false
				break
			}
		}
		if !removable {
			continue
		}
		keep[it] = false
		for _, fi := range detects[it] {
			mult[fi]--
		}
	}

	// Rebuild, remapping configuration indices.
	out := pattern.NewTestSet(ts.Name+"-compact", ts.Arch, ts.Params)
	cfgMap := make(map[int]int)
	for it := 0; it < n; it++ {
		if !keep[it] {
			continue
		}
		item := ts.Items[it]
		ci, ok := cfgMap[item.ConfigIndex]
		if !ok {
			ci = out.AddConfig(ts.Configs[item.ConfigIndex])
			cfgMap[item.ConfigIndex] = ci
		}
		item.ConfigIndex = ci
		out.Items = append(out.Items, item)
	}
	st.ItemsAfter = out.NumPatterns()
	st.ConfigsAfter = out.NumConfigs()
	return out, st
}

// Irredundant reports whether compaction against universe would keep every
// item of ts — i.e. each item is the sole detector of at least one fault.
func Irredundant(ts *pattern.TestSet, values fault.Values, transform faultsim.ConfigTransform, universe []fault.Fault) bool {
	_, st := Compact(ts, values, transform, universe)
	return st.ItemsAfter == st.ItemsBefore
}
