package faultsim

import (
	"sync"

	"neurotest/internal/obs"
)

// Package-level instruments in the process-wide obs default registry. An
// evaluator accumulates memo statistics in plain fields (evaluators are
// single-goroutine pool-slot scratch), and each Detects or DetectsMatrix
// call flushes its slots' statistics here once, so the hot downstream path
// never touches an atomic.
var (
	obsOnce sync.Once

	faultsSimulated *obs.Counter
	faultClasses    *obs.Counter
	memoHits        *obs.Counter
	memoMisses      *obs.Counter
	goldenBuilds    *obs.Counter
	engineBuilds    *obs.Histogram
)

// ensureObs registers the package instruments on first use.
func ensureObs() {
	obsOnce.Do(func() {
		r := obs.Default()
		faultsSimulated = r.Counter("faultsim_faults_simulated_total",
			"faults that reached a verdict, one per fault per call, whether evaluated or broadcast from their class representative")
		faultClasses = r.Counter("faultsim_fault_classes_total",
			"fault-equivalence classes evaluated by the packed kernel, one per representative per call")
		memoHits = r.Counter("faultsim_memo_hits_total",
			"downstream re-simulations avoided by the (layer, neuron, train) memo, per (representative, item) lookup")
		memoMisses = r.Counter("faultsim_memo_misses_total",
			"downstream re-simulations actually run, per (representative, item) lookup")
		r.GaugeFunc("faultsim_memo_hit_ratio",
			"fraction of (representative, item) downstream lookups served from the memo",
			func() float64 {
				h, m := memoHits.Value(), memoMisses.Value()
				if h+m == 0 {
					return 0
				}
				return float64(h) / float64(h+m)
			})
		goldenBuilds = r.Counter("faultsim_golden_builds_total",
			"shared Goldens built (good-chip traces simulated); one per campaign, not per worker")
		engineBuilds = r.Histogram("faultsim_engine_build_seconds",
			"good-chip simulation and trace caching when a shared Golden is built", nil)
	})
}

// Stats is a point-in-time snapshot of the package's process-wide fault
// simulation counters, for efficiency reporting (cmd/experiments) and for
// tests asserting that goldens are simulated exactly once per campaign.
type Stats struct {
	// GoldenBuilds counts NewGolden calls (each simulates every item's
	// good-chip trace once).
	GoldenBuilds int64
	// FaultsSimulated counts faults that reached a verdict, whether
	// evaluated or broadcast from their class representative.
	FaultsSimulated int64
	// Classes counts the fault-equivalence classes whose representatives
	// the packed kernel evaluated.
	Classes int64
	// MemoHits and MemoMisses count downstream re-simulations avoided by /
	// charged to the shared (layer, neuron, train) memo, one per
	// (representative, item) lookup.
	MemoHits   int64
	MemoMisses int64
}

// HitRatio returns the fraction of downstream lookups served from the memo.
func (s Stats) HitRatio() float64 {
	if s.MemoHits+s.MemoMisses == 0 {
		return 0
	}
	return float64(s.MemoHits) / float64(s.MemoHits+s.MemoMisses)
}

// Snapshot reads the current counter values. Subtract two snapshots to
// meter one campaign.
func Snapshot() Stats {
	ensureObs()
	return Stats{
		GoldenBuilds:    goldenBuilds.Value(),
		FaultsSimulated: faultsSimulated.Value(),
		Classes:         faultClasses.Value(),
		MemoHits:        memoHits.Value(),
		MemoMisses:      memoMisses.Value(),
	}
}

// flush publishes the accounting of one Detects or DetectsMatrix call that
// resolved n faults in the given number of evaluated classes, together with
// the memo statistics of its slots' evaluators (nil slots are skipped).
// Each call flushes exactly once:
//
//   - faults simulated rises by one per fault that reached a verdict,
//     evaluated or broadcast from its class representative — a matrix call
//     counts a fault once, not once per item it was run on;
//   - fault classes rises by one per representative that reached a
//     verdict;
//   - memo hits and misses count (representative, item) lookups of the
//     downstream memo, so a matrix call and a coverage call over a
//     one-item test set publish identical traffic, and the members of a
//     class add none;
//   - the evaluators' pending counters are zero afterwards.
func flush(evals []*evaluator, n, classes int) {
	ensureObs()
	var hits, misses int64
	for _, e := range evals {
		if e != nil {
			hits += int64(e.pendingMemoHits)
			misses += int64(e.pendingMemoMisses)
			e.pendingMemoHits, e.pendingMemoMisses = 0, 0
		}
	}
	faultsSimulated.Add(int64(n))
	faultClasses.Add(int64(classes))
	memoHits.Add(hits)
	memoMisses.Add(misses)
}
