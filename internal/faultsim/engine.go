// Package faultsim provides exhaustive fault simulation of a test set
// against a fault universe.
//
// A naive campaign re-simulates the whole network for every (fault, item)
// pair — about 10^12 multiply-accumulates for the paper's synapse-fault
// universes. The simulator here exploits the single-fault assumption
// instead:
//
//  1. It collapses the fault list into exact equivalence classes
//     (collapse.go). Faults whose effect is provably identical on every item
//     — synapse faults that share kind, boundary, post neuron, presynaptic
//     golden train and weight bits, or neuron faults listed twice — form
//     one class; only one representative per class is simulated, and its
//     verdict is broadcast to the other members.
//  2. For each test item it simulates the good chip once, recording every
//     neuron's spike train, per-timestep weighted input sum and pre-reset
//     membrane potential (snn.Trace).
//  3. A fault perturbs exactly one neuron's integration (NASF/ESF/HSF) or
//     one synapse's contribution (SWF/SASF), so the faulty spike train of
//     the affected neuron is recomputable from the recorded sums in O(T).
//  4. Only when that train differs from the good train does the fault reach
//     the rest of the network; the downstream layers are then re-simulated —
//     memoized on (layer, neuron, faulty train), because every fault that
//     deviates the same neuron in the same way produces the same outputs.
//
// The result is an exact, bit-identical replacement for brute-force
// simulation (asserted by tests) at a tiny fraction of the cost.
//
// Golden holds everything derived from the test set alone — the
// configurations as given, per-item activity traces, golden results, the
// downstream memo and the collapse index (interned presynaptic trains and
// the distinct boundary arrays, built on first use). NewGolden validates the
// test set and builds it once per test program; the tester's ATE keeps one,
// which every campaign on the program reads. It is immutable except for the
// memo (sharded per item, mutex-guarded) and the once-built collapse index,
// and is safe for any number of concurrent readers.
//
// A fault campaign is one call on the Golden, with one kernel, the
// bit-parallel packed kernel of packed.go, and two drivers (driver.go):
// Detects (one verdict per fault class, with cross-item early exit, behind
// the tester's coverage campaigns, which neurotest coverage, the
// experiments and neurotestd run) and DetectsMatrix (the full fault × item
// detection matrix behind the tester's ATE.DetectsMatrix, which
// dictionaries, compaction and greedy selection read). Each collapses its
// list once, packs the representatives, runs them on the worker pool with
// one evaluator (per-slot kernel scratch) per slot, broadcasts every
// class's verdict to its members and flushes the obs counters once. The
// fault-at-a-time scalar kernel survives only as the differential test
// oracle.
package faultsim

import (
	"context"
	"sync"

	"neurotest/internal/fault"
	"neurotest/internal/margin"
	"neurotest/internal/obs"
	"neurotest/internal/pattern"
	"neurotest/internal/pool"
	"neurotest/internal/snn"
)

// memoKey identifies one deviation of one neuron's spike train.
type memoKey struct {
	layer int
	index int
	train uint64
}

// memoShard is one item's slice of the campaign-wide downstream memo. One
// shard per item keeps contention low (evaluations of different items never
// share a lock) and the critical sections are map-access only — the
// downstream re-simulation itself runs lock-free on evaluator scratch, so a
// recovered worker panic can never leave a shard locked. Two workers may
// race to compute the same entry; both derive the same deterministic value,
// so the second store is a harmless overwrite.
type memoShard struct {
	mu sync.RWMutex
	m  map[memoKey]bool
}

func (s *memoShard) lookup(k memoKey) (det, ok bool) {
	s.mu.RLock()
	det, ok = s.m[k]
	s.mu.RUnlock()
	return det, ok
}

func (s *memoShard) store(k memoKey, det bool) {
	s.mu.Lock()
	s.m[k] = det
	s.mu.Unlock()
}

// goldenItem holds the cached good simulation of one test item plus that
// item's memo shard. The trace carries every neuron's spike train, weighted
// input sums and pre-reset potentials; the packed kernel seeds a lane's
// potential from it (enter) the first time the lane's input deviates from
// the golden run.
type goldenItem struct {
	item   pattern.Item
	net    *snn.Network
	trace  *snn.Trace
	golden snn.Result
	memo   memoShard
}

// enter returns the golden membrane potential of neuron j of layer k
// (k >= 1) entering timestep t: 0 at t = 0, else the recorded pre-reset
// potential of t−1, reset through snn.Reset when the golden neuron fired
// then — bit for bit the potential the golden simulator carried.
func (ic *goldenItem) enter(k, j, t int) float64 {
	if t == 0 {
		return 0
	}
	v := ic.trace.V[k][(t-1)*ic.net.Arch[k]+j]
	if ic.trace.X[k][j]&(1<<uint(t-1)) == 0 {
		return v
	}
	p := ic.net.Params
	return snn.Reset(v, p.Theta, p.Reset == snn.ResetSubtract)
}

// Golden is the shared, read-mostly state of the incremental fault
// simulator: the test set's configurations as given, per-item golden
// traces and results, and the sharded downstream memo. Build it once per
// test program with NewGolden, then run any number of campaigns on it.
type Golden struct {
	ts    *pattern.TestSet
	items []goldenItem
	// groups counts the layer-1 input sums the build added up, one per
	// item group (pattern.TestSet.InputGroups).
	groups int
	// index is the Golden-derived part of fault collapsing (collapse.go),
	// built on first use under indexOnce.
	indexOnce sync.Once
	index     *collapseIndex
}

// NewGolden validates ts (pattern.TestSet.Validate) and runs and caches the
// good-chip simulation of every item, reading ts.Configs as given: a
// quantized design is simulated by handing in the test set as programmed
// (quant.Program). A test set that fails validation is returned as the
// error, before anything is simulated. Items that drive the same layer-1
// input (pattern.TestSet.InputGroups: equal patterns over bit-identical
// boundary-0 weights) share its sum: the build adds up each group's sum
// once, one pool task per group, then traces every item from its group's
// sum (snn.Simulator.RunInputTrace), one pool task per item, bit for bit
// the trace RunTrace records. The items are kept in ts.Items order. The
// returned Golden is safe for concurrent use by any number of campaigns.
//
// The build takes no context: a Golden shared by several campaigns must
// not be cut short by one of them.
func NewGolden(ts *pattern.TestSet) (*Golden, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	ensureObs()
	timer := obs.StartTimer()
	defer func() { timer.ObserveElapsed(engineBuilds) }()
	goldenBuilds.Inc()
	group, first := ts.InputGroups()
	sums, _ := pool.Run(context.TODO(), len(first), func(g, _ int) []float64 {
		return ts.InputSum(ts.Items[first[g]])
	})
	// A simulator is single-goroutine scratch: each pool slot keeps its own
	// and rebinds it whenever its next item uses another configuration.
	sims := make([]*snn.Simulator, pool.Workers(len(ts.Items)))
	items, _ := pool.Run(context.TODO(), len(ts.Items), func(i, w int) goldenItem {
		it := ts.Items[i]
		net := ts.Configs[it.ConfigIndex]
		if sims[w] == nil || sims[w].Bind(net, nil) != nil {
			sims[w] = snn.NewSimulator(net)
		}
		golden, trace := sims[w].RunInputTrace(&snn.Input{Sum: sums[group[i]]}, it.Pattern, it.Timesteps, it.Mode(), nil)
		return goldenItem{
			item:   it,
			net:    net,
			trace:  trace,
			golden: golden,
			memo:   memoShard{m: make(map[memoKey]bool)},
		}
	})
	return &Golden{ts: ts, items: items, groups: len(first)}, nil
}

// Result returns the golden (good-chip) observable output of item i. The
// tester derives its expected responses from here instead of running a
// second, identical simulation of each item.
func (g *Golden) Result(i int) snn.Result { return g.items[i].golden }

// evaluator is one pool slot's scratch for evaluating faults against a
// Golden: the buffers of one in-flight evaluation and the slot's memo
// statistics. It is cheap to build and to throw away, but — unlike the
// Golden it reads — it must stay confined to a single goroutine.
type evaluator struct {
	g      *Golden
	values fault.Values
	// delta is faultSite's per-timestep input-delta scratch.
	delta []float64
	// ps is the packed kernel's scratch (see packed.go).
	ps packedScratch
	// slot-local memo statistics, flushed to the obs counters once per
	// driver call (evaluators are single-goroutine scratch, so plain ints
	// suffice on the hot path)
	pendingMemoHits   int
	pendingMemoMisses int
}

// newEvaluator returns a fresh evaluator over g. values parameterizes the
// fault models (θ̂, ω̂); the golden traces and the memo are independent of
// them, so campaigns with different values may share one Golden.
func (g *Golden) newEvaluator(values fault.Values) *evaluator {
	e := &evaluator{g: g, values: values, delta: make([]float64, snn.MaxTimesteps)}
	e.ps.init(g.ts.Arch)
	return e
}

// faultSite resolves a fault against one cached item: the deviating
// neuron's (layer, index) and its faulty spike train. ok is false when the
// fault is behaviourally inert on this item (input-layer threshold faults,
// stuck-at-programmed-value weights, always-on zero weights) — the caller
// must report it undetected without touching the trace. This is the one
// semantic definition of the five fault models; the packed kernel and the
// test-only scalar oracle both go through it. collapse's synapse class
// key (collapse.go) is exactly what this function reads of a synapse fault
// and an item, so any new input here must join that key.
func (e *evaluator) faultSite(ic *goldenItem, f fault.Fault) (layer, index int, faultyTrain uint64, ok bool) {
	T := ic.item.Timesteps

	switch f.Kind {
	case fault.NASF:
		layer, index = f.Neuron.Layer, f.Neuron.Index
		faultyTrain = fullMask(T)
	case fault.ESF, fault.HSF:
		layer, index = f.Neuron.Layer, f.Neuron.Index
		if layer == 0 {
			// Input neurons have no threshold: the paper's universe
			// (Section 3.2) excludes input-layer threshold faults, and the
			// simulator's Modifiers contract ignores them, so such a fault
			// is behaviourally inert. Report it undetectable instead of
			// indexing the input layer's nonexistent weighted-sum trace.
			return 0, 0, 0, false
		}
		theta := e.values.ESFTheta
		if f.Kind == fault.HSF {
			theta = e.values.HSFTheta
		}
		faultyTrain = e.reintegrate(ic, layer, index, theta, nil)
	case fault.SWF:
		layer, index = f.Synapse.Boundary+1, f.Synapse.Post
		w := ic.net.Entry(f.Synapse.Boundary, f.Synapse.Pre, f.Synapse.Post)
		dw := e.values.SWFOmega - w
		if margin.IsZero(dw) {
			return 0, 0, 0, false // stuck at its programmed value: no behavioural change
		}
		preTrain := ic.trace.X[f.Synapse.Boundary][f.Synapse.Pre]
		delta := e.delta[:T]
		for t := 0; t < T; t++ {
			delta[t] = 0
			if preTrain&(1<<uint(t)) != 0 {
				delta[t] = dw
			}
		}
		faultyTrain = e.reintegrate(ic, layer, index, ic.net.Params.Theta, delta)
	case fault.SASF:
		layer, index = f.Synapse.Boundary+1, f.Synapse.Post
		w := ic.net.Entry(f.Synapse.Boundary, f.Synapse.Pre, f.Synapse.Post)
		if margin.IsZero(w) {
			return 0, 0, 0, false // an always-spiking zero-weight synapse is invisible
		}
		preTrain := ic.trace.X[f.Synapse.Boundary][f.Synapse.Pre]
		delta := e.delta[:T]
		for t := 0; t < T; t++ {
			delta[t] = 0
			if preTrain&(1<<uint(t)) == 0 {
				delta[t] = w
			}
		}
		faultyTrain = e.reintegrate(ic, layer, index, ic.net.Params.Theta, delta)
	default:
		panic("faultsim: unknown fault kind")
	}
	return layer, index, faultyTrain, true
}

// reintegrate recomputes the spike train of neuron (layer, index) from the
// recorded weighted input sums, with an optional per-timestep input delta
// and the given threshold. Cost is O(T).
func (e *evaluator) reintegrate(ic *goldenItem, layer, index int, theta float64, delta []float64) uint64 {
	T := ic.item.Timesteps
	width := e.g.ts.Arch[layer]
	leak := ic.net.Params.Leak
	subtract := ic.net.Params.Reset == snn.ResetSubtract
	y := ic.trace.Y[layer]
	var mp float64
	var train uint64
	for t := 0; t < T; t++ {
		in := y[t*width+index]
		if delta != nil {
			in += delta[t]
		}
		var fired bool
		_, mp, fired = snn.Step(mp, in, leak, theta, subtract, false)
		if fired {
			train |= 1 << uint(t)
		}
	}
	return train
}

// fullMask returns a mask with the low T bits set.
func fullMask(T int) uint64 {
	if T >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(T)) - 1
}
