package faultsim

import (
	"context"
	"sync"
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/snn"
)

// statsDelta subtracts two snapshots field-wise.
func statsDelta(after, before Stats) Stats {
	return Stats{
		GoldenBuilds:    after.GoldenBuilds - before.GoldenBuilds,
		FaultsSimulated: after.FaultsSimulated - before.FaultsSimulated,
		MemoHits:        after.MemoHits - before.MemoHits,
		MemoMisses:      after.MemoMisses - before.MemoMisses,
	}
}

// TestMatrixFlushesObs pins the matrix accounting (see flushObsN): one
// DetectsMatrix call flushes once, counts every fault exactly once however
// many items it ran on, leaves no pending memo statistics, and over a
// one-item set publishes exactly the memo traffic of a coverage call.
func TestMatrixFlushesObs(t *testing.T) {
	values := fault.PaperValues(0.5)
	arch := snn.Arch{4, 3, 2}
	universe := fault.Universe(arch, fault.SWF)

	multi := NewGolden(randomTestSet(arch, 2, 3, 11), nil).NewEvaluator(values)
	before := Snapshot()
	detectsMatrix(t, multi, universe)
	if d := statsDelta(Snapshot(), before); d.FaultsSimulated != int64(len(universe)) {
		t.Errorf("faults simulated = %d over 6 items, want %d (one per fault)", d.FaultsSimulated, len(universe))
	}

	ts := randomTestSet(arch, 1, 1, 11)
	e1 := NewGolden(ts, nil).NewEvaluator(values)
	before = Snapshot()
	detectsMatrix(t, e1, universe)
	matrix := statsDelta(Snapshot(), before)
	if e1.pendingMemoHits != 0 || e1.pendingMemoMisses != 0 {
		t.Errorf("pending stats not flushed: hits=%d misses=%d",
			e1.pendingMemoHits, e1.pendingMemoMisses)
	}
	if matrix.FaultsSimulated != int64(len(universe)) {
		t.Errorf("faults simulated = %d, want %d (one per fault)",
			matrix.FaultsSimulated, len(universe))
	}

	// The same workload through the coverage driver on a fresh Golden: with
	// a single item the two drivers do identical work, so the published
	// memo statistics must agree.
	e2 := NewGolden(ts, nil).NewEvaluator(values)
	before = Snapshot()
	if _, err := e2.Coverage(context.Background(), universe); err != nil {
		t.Fatal(err)
	}
	cov := statsDelta(Snapshot(), before)
	if matrix.MemoHits != cov.MemoHits || matrix.MemoMisses != cov.MemoMisses {
		t.Errorf("DetectsMatrix published hits=%d misses=%d; Coverage published hits=%d misses=%d",
			matrix.MemoHits, matrix.MemoMisses, cov.MemoHits, cov.MemoMisses)
	}
	if matrix.FaultsSimulated != cov.FaultsSimulated {
		t.Errorf("faults simulated: matrix %d != coverage %d", matrix.FaultsSimulated, cov.FaultsSimulated)
	}
}

// TestInputLayerThresholdFaultsUndetectable pins the layer-0 guard: the
// paper's universe (Section 3.2) has no input-layer threshold faults — input
// neurons have no threshold — but the engine must stay total over manually
// constructed ones instead of indexing the input layer's nonexistent
// weighted-sum trace. Brute force agrees: the simulator ignores input-layer
// threshold overrides, so such a fault is behaviourally inert.
func TestInputLayerThresholdFaultsUndetectable(t *testing.T) {
	values := fault.PaperValues(0.5)
	arch := snn.Arch{4, 3, 2}
	ts := randomTestSet(arch, 2, 3, 23)
	eng := NewGolden(ts, nil).NewEvaluator(values)
	var input []fault.Fault
	for _, kind := range []fault.Kind{fault.ESF, fault.HSF} {
		for i := 0; i < arch[0]; i++ {
			input = append(input, fault.NewNeuronFault(kind, snn.NeuronID{Layer: 0, Index: i}))
		}
	}
	for i, det := range detectsBatch(t, eng, input) {
		f := input[i]
		if det {
			t.Errorf("%v: input-layer threshold fault reported detected", f)
		}
		if bruteForce(ts, values, f) {
			t.Errorf("%v: brute force disagrees that the fault is inert", f)
		}
	}
}

// TestConcurrentEvaluatorsShareGolden is the shared-Golden contract: one
// NewGolden call, many evaluators on separate goroutines racing over the
// same items and memo shards, and every verdict identical to a serial
// oracle. Run under -race this also gates the memo's locking discipline.
func TestConcurrentEvaluatorsShareGolden(t *testing.T) {
	values := fault.PaperValues(0.5)
	arch := snn.Arch{5, 4, 3, 2}
	ts := randomTestSet(arch, 2, 3, 31)
	var universe []fault.Fault
	for _, kind := range fault.Kinds() {
		universe = append(universe, fault.Universe(arch, kind)...)
	}

	want := detectsEach(newScalarOracle(NewGolden(ts, nil).NewEvaluator(values)), universe)

	before := Snapshot()
	g := NewGolden(ts, nil)
	const workers = 4
	got := make([]bool, len(universe))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := g.NewEvaluator(values)
			// Strided split into single-fault batches: workers interleave
			// over the universe so every worker touches every item's memo
			// shard.
			for i := w; i < len(universe); i += workers {
				det, err := e.DetectsBatch(context.Background(), universe[i:i+1])
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = det[0]
			}
		}(w)
	}
	wg.Wait()

	for i, f := range universe {
		if got[i] != want[i] {
			t.Errorf("%v: concurrent=%v serial=%v", f, got[i], want[i])
		}
	}
	if d := Snapshot().GoldenBuilds - before.GoldenBuilds; d != 1 {
		t.Errorf("golden builds = %d, want 1 regardless of worker count", d)
	}
}
