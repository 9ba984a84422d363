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
	"neurotest/internal/pattern"
	"neurotest/internal/quant"
	"neurotest/internal/tester"
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

// CompactOn returns a coverage-preserving subset of ate's test program
// with redundant items removed, plus statistics. universe defines the
// faults whose coverage must be preserved; detection is simulated on the
// program as ate programs it (tester.ATE.DetectsMatrix, whose errors it
// returns), since compaction decisions must match deployment conditions.
// The result keeps the program's own unquantized configurations;
// unreferenced ones are dropped.
func CompactOn(ctx context.Context, ate *tester.ATE, values fault.Values, universe []fault.Fault) (*pattern.TestSet, Stats, error) {
	rows, err := ate.DetectsMatrix(ctx, universe, values)
	if err != nil {
		return nil, Stats{}, err
	}
	ts := ate.TestSet()
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
	return out, st, nil
}

// Compact is CompactOn over a fresh tester.New(ts, scheme).
//
//lint:ignore dead-code perfbench's signoff calls Compact; a benchmark change moves it onto CompactOn
func Compact(ts *pattern.TestSet, values fault.Values, scheme *quant.Scheme, universe []fault.Fault) (*pattern.TestSet, Stats) {
	out, st, err := CompactOn(context.TODO(), tester.New(ts, scheme), values, universe)
	if err != nil {
		//lint:ignore no-panic Compact exists only for perfbench's signoff, whose faults all lie in the architecture
		panic(err)
	}
	return out, st
}
