package faultsim

import (
	"context"
	"math/bits"
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/snn"
)

// scalarOracle is the fault-at-a-time reference kernel the packed kernel is
// differentially tested against: one fault on one item, with a full
// downstream re-simulation over []bool spike vectors. It resolves fault
// sites through the production faultSite (so the five fault models keep one
// definition), reads and writes the Golden's shared memo, and flushes the
// evaluator's obs accounting once per call, like a batch of one fault.
type scalarOracle struct {
	e      *Evaluator
	mp     [][]float64
	spikes [][]bool
	counts []int
}

// newScalarOracle wraps e with the oracle's scratch.
func newScalarOracle(e *Evaluator) *scalarOracle {
	arch := e.g.ts.Arch
	L := arch.Layers()
	o := &scalarOracle{e: e, mp: make([][]float64, L), spikes: make([][]bool, L), counts: make([]int, arch[L-1])}
	for k := 0; k < L; k++ {
		o.mp[k] = make([]float64, arch[k])
		o.spikes[k] = make([]bool, arch[k])
	}
	return o
}

// DetectsOnItem reports whether item idx alone detects f.
func (o *scalarOracle) DetectsOnItem(f fault.Fault, idx int) bool {
	defer o.e.flushObsN(1)
	return o.detectsOn(&o.e.g.items[idx], f)
}

// DetectingItem returns the index of the first item that detects f, or -1.
func (o *scalarOracle) DetectingItem(f fault.Fault) int {
	defer o.e.flushObsN(1)
	for i := range o.e.g.items {
		if o.detectsOn(&o.e.g.items[i], f) {
			return i
		}
	}
	return -1
}

// Detects reports whether any item of the test set detects f.
func (o *scalarOracle) Detects(f fault.Fault) bool { return o.DetectingItem(f) >= 0 }

// detectsOn evaluates one fault against one cached item.
func (o *scalarOracle) detectsOn(ic *goldenItem, f fault.Fault) bool {
	layer, index, faultyTrain, ok := o.e.faultSite(ic, f)
	if !ok {
		return false
	}
	// A faulty train identical to the recorded golden train is behaviourally
	// inert on this item: nothing downstream can change, so report
	// undetected without running (or memoizing) a no-op propagation.
	goodTrain := ic.trace.X[layer][index]
	if faultyTrain == goodTrain {
		return false
	}
	L := o.e.g.ts.Arch.Layers()
	if layer == L-1 && layer != 0 {
		// The deviating neuron is a primary output: detection compares
		// spike counts directly.
		return bits.OnesCount64(faultyTrain) != bits.OnesCount64(goodTrain)
	}
	return o.downstream(ic, layer, index, faultyTrain)
}

// downstream re-simulates layers layer+1..L-1 with neuron (layer, index)
// forced to faultyTrain and every other neuron of that layer replaying its
// recorded good train, then compares primary-output counts against the
// golden result. Results are memoized in the item's shared memo.
func (o *scalarOracle) downstream(ic *goldenItem, layer, index int, faultyTrain uint64) bool {
	e := o.e
	key := memoKey{layer: layer, index: index, train: faultyTrain}
	if det, ok := ic.memo.lookup(key); ok {
		e.pendingMemoHits++
		return det
	}
	e.pendingMemoMisses++

	arch := e.g.ts.Arch
	L := arch.Layers()
	T := ic.item.Timesteps
	theta := ic.net.Params.Theta
	leak := ic.net.Params.Leak
	subtract := ic.net.Params.Reset == snn.ResetSubtract

	for k := layer + 1; k < L; k++ {
		for j := range o.mp[k] {
			o.mp[k][j] = 0
		}
	}
	counts := o.counts
	for j := range counts {
		counts[j] = 0
	}
	golden := ic.golden.SpikeCounts
	goodX := ic.trace.X[layer]

	for t := 0; t < T; t++ {
		bit := uint64(1) << uint(t)
		// Source layer: recorded good trains with the faulty neuron patched.
		src := o.spikes[layer]
		for i := range src {
			src[i] = goodX[i]&bit != 0
		}
		src[index] = faultyTrain&bit != 0

		for k := layer + 1; k < L; k++ {
			nIn, nOut := arch[k-1], arch[k]
			w := ic.net.W[k-1]
			pre := o.spikes[k-1]
			mp := o.mp[k]
			out := o.spikes[k]
			// Leak first, then integrate contributions of firing inputs.
			for j := 0; j < nOut; j++ {
				mp[j] *= leak
			}
			for i := 0; i < nIn; i++ {
				if !pre[i] {
					continue
				}
				snn.AddInto(mp, w[i*nOut:(i+1)*nOut])
			}
			for j := 0; j < nOut; j++ {
				if mp[j] > theta {
					out[j] = true
					if subtract {
						mp[j] -= theta
					} else {
						mp[j] = 0
					}
				} else {
					out[j] = false
				}
			}
		}
		for j, sp := range o.spikes[L-1] {
			if sp {
				counts[j]++
				if counts[j] > golden[j] {
					// Output spike counts are monotone nondecreasing in t,
					// so an overshoot can never fall back to the golden
					// count: the remaining timesteps cannot change the
					// verdict.
					ic.memo.store(key, true)
					return true
				}
			}
		}
	}

	detected := false
	for j, c := range counts {
		if c != golden[j] {
			detected = true
			break
		}
	}
	ic.memo.store(key, detected)
	return detected
}

// detectsBatch runs DetectsBatch under a live context, failing the test on
// an error.
func detectsBatch(t testing.TB, e *Evaluator, faults []fault.Fault) []bool {
	t.Helper()
	out, err := e.DetectsBatch(context.Background(), faults)
	if err != nil {
		t.Fatalf("DetectsBatch: %v", err)
	}
	return out
}

// detectsMatrix runs DetectsMatrix under a live context, failing the test
// on an error.
func detectsMatrix(t testing.TB, e *Evaluator, faults []fault.Fault) [][]uint64 {
	t.Helper()
	rows, err := e.DetectsMatrix(context.Background(), faults)
	if err != nil {
		t.Fatalf("DetectsMatrix: %v", err)
	}
	return rows
}

// matrixHas reports whether item i is set in a DetectsMatrix row.
func matrixHas(row []uint64, i int) bool { return row[i/64]&(1<<uint(i%64)) != 0 }

// assertMatrixMatchesOracle fails on any (fault, item) pair where a
// DetectsMatrix row disagrees with the oracle's DetectsOnItem, and on any
// bit set beyond the last item.
func assertMatrixMatchesOracle(t testing.TB, rows [][]uint64, oracle *scalarOracle, faults []fault.Fault) {
	t.Helper()
	n := len(oracle.e.g.items)
	if len(rows) != len(faults) {
		t.Fatalf("DetectsMatrix returned %d rows for %d faults", len(rows), len(faults))
	}
	for fi, f := range faults {
		if len(rows[fi]) != (n+63)/64 {
			t.Fatalf("%v: row has %d words for %d items", f, len(rows[fi]), n)
		}
		for i := 0; i < len(rows[fi])*64; i++ {
			want := i < n && oracle.DetectsOnItem(f, i)
			if got := matrixHas(rows[fi], i); got != want {
				t.Fatalf("%v item %d: matrix=%v oracle=%v", f, i, got, want)
			}
		}
	}
}
