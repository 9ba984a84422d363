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
			"faults evaluated by the packed kernel, one per fault per call")
		memoHits = r.Counter("faultsim_memo_hits_total",
			"downstream re-simulations avoided by the (layer, neuron, train) memo")
		memoMisses = r.Counter("faultsim_memo_misses_total",
			"downstream re-simulations actually run")
		r.GaugeFunc("faultsim_memo_hit_ratio",
			"fraction of downstream lookups served from the memo",
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
	// FaultsSimulated counts completed fault evaluations.
	FaultsSimulated int64
	// MemoHits and MemoMisses count downstream re-simulations avoided by /
	// charged to the shared (layer, neuron, train) memo.
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
		MemoHits:        memoHits.Value(),
		MemoMisses:      memoMisses.Value(),
	}
}

// flushObsN publishes the accumulated statistics of one DetectsBatch or
// DetectsMatrix call that resolved n faults. Each call flushes exactly once:
//
//   - faults simulated rises by one per fault that reached a verdict — a
//     matrix call counts a fault once, not once per item it was run on;
//   - memo hits and misses count (fault, item) lookups of the downstream
//     memo, so a matrix call and a coverage call over a one-item test set
//     publish identical traffic;
//   - the evaluator's pending counters are zero afterwards.
func (e *Evaluator) flushObsN(n int) {
	ensureObs()
	if n > 0 {
		faultsSimulated.Add(int64(n))
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
