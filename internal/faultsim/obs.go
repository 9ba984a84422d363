package faultsim

import (
	"sync"

	"neurotest/internal/obs"
)

// Package-level instruments in the process-wide obs default registry. An
// evaluator accumulates memo statistics in plain fields (evaluators are
// single-goroutine worker scratch) and flushes them here once per
// DetectsBatch or DetectsMatrix call, so the hot downstream path never
// touches an atomic.
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

// CountBroadcast records n faults that reached a verdict by their class
// representative's evaluation without being passed to a driver themselves.
// A caller that collapses a fault list with Golden.Collapse and hands only
// the representatives to DetectsBatch reports the other members here, so
// faultsim_faults_simulated_total counts every fault it resolved.
func CountBroadcast(n int) {
	ensureObs()
	if n > 0 {
		faultsSimulated.Add(int64(n))
	}
}

// flushObsN publishes the accumulated statistics of one DetectsBatch or
// DetectsMatrix call that resolved n faults in the given number of
// equivalence classes. Each call flushes exactly once:
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
//   - the evaluator's pending counters are zero afterwards.
func (e *Evaluator) flushObsN(n, classes int) {
	ensureObs()
	if n > 0 {
		faultsSimulated.Add(int64(n))
	}
	if classes > 0 {
		faultClasses.Add(int64(classes))
	}
	if e.pendingMemoHits > 0 {
		memoHits.Add(int64(e.pendingMemoHits))
		e.pendingMemoHits = 0
	}
	if e.pendingMemoMisses > 0 {
		memoMisses.Add(int64(e.pendingMemoMisses))
		e.pendingMemoMisses = 0
	}
}
