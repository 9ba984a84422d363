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
// The work splits across two types so parallel campaigns never repeat it:
//
//   - Golden holds everything derived from the test set alone — the
//     configurations as given, per-item activity traces, golden results, the
//     downstream memo and the collapse index (interned presynaptic trains
//     and the distinct item networks, built on first use). It is built once
//     per test program, by the tester's ATE, which every campaign on the
//     program reads; it is immutable except for the memo (sharded per item,
//     mutex-guarded) and the once-built collapse index, and is safe for any
//     number of concurrent readers.
//   - Evaluator holds the per-goroutine scratch buffers one fault
//     evaluation needs. Evaluators are cheap (a handful of slices), so a
//     worker pool builds one per slot and discards it freely without
//     losing the goldens or the memo.
//
// Evaluation runs on one kernel, the bit-parallel packed kernel of
// packed.go, with two drivers: DetectsBatch (per-fault verdicts with
// cross-item early exit, behind the tester's coverage campaigns, which
// neurotest coverage, the experiments and neurotestd run) and DetectsMatrix
// (the full fault × item detection matrix behind the tester's
// ATE.DetectsMatrix, which dictionaries, compaction and greedy selection
// read). Both collapse their input first. The fault-at-a-time scalar
// kernel survives only as the differential test oracle.
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

// Golden is the shared, read-mostly half of the incremental fault
// simulator: the test set's configurations as given, per-item golden
// traces and results, and the sharded downstream memo. Build it once per
// campaign with NewGolden, then hand each worker its own Evaluator.
type Golden struct {
	ts    *pattern.TestSet
	items []goldenItem
	// collapse is the Golden-derived part of fault collapsing (collapse.go),
	// built on first use under collapseOnce.
	collapseOnce sync.Once
	collapse     *collapseIndex
}

// NewGolden runs and caches the good-chip simulation of every item in ts,
// reading ts.Configs as given: a quantized design is simulated by handing
// in the test set as programmed (quant.Program). The items are traced on
// the worker pool, one task per item, and kept in ts.Items order. The
// returned Golden is safe for concurrent use by any number of Evaluators.
//
// A panic while tracing an item (a pattern of the wrong width, say) is
// re-raised on the caller's goroutine. The build takes no context: a
// Golden shared by several campaigns must not be cut short by one of them.
func NewGolden(ts *pattern.TestSet) *Golden {
	ensureObs()
	timer := obs.StartTimer()
	defer func() { timer.ObserveElapsed(engineBuilds) }()
	goldenBuilds.Inc()
	// A simulator is single-goroutine scratch: each pool slot keeps its own
	// and rebinds it whenever its next item uses another configuration.
	sims := make([]*snn.Simulator, pool.Workers(len(ts.Items)))
	items, _ := pool.Run(context.TODO(), len(ts.Items), func(i, w int) goldenItem {
		it := ts.Items[i]
		net := ts.Configs[it.ConfigIndex]
		if sims[w] == nil || sims[w].Bind(net, nil) != nil {
			sims[w] = snn.NewSimulator(net)
		}
		golden, trace := sims[w].RunTrace(it.Pattern, it.Timesteps, it.Mode(), nil)
		return goldenItem{
			item:   it,
			net:    net,
			trace:  trace,
			golden: golden,
			memo:   memoShard{m: make(map[memoKey]bool)},
		}
	})
	return &Golden{ts: ts, items: items}
}

// Result returns the golden (good-chip) observable output of item i. The
// tester derives its expected responses from here instead of running a
// second, identical simulation of each item.
func (g *Golden) Result(i int) snn.Result { return g.items[i].golden }

// Evaluator evaluates faults against a shared Golden. It holds only the
// scratch buffers of one in-flight evaluation, so it is cheap to build and
// to throw away, but — unlike the Golden it reads — it must stay confined
// to a single goroutine.
type Evaluator struct {
	g      *Golden
	values fault.Values
	// delta is faultSite's per-timestep input-delta scratch.
	delta []float64
	// ps is the packed kernel's scratch (see packed.go).
	ps packedScratch
	// evaluator-local memo statistics, flushed to the obs counters once per
	// call (evaluators are single-goroutine worker scratch, so plain ints
	// suffice on the hot path)
	pendingMemoHits   int
	pendingMemoMisses int
}

// NewEvaluator returns a fresh evaluator over g. values parameterizes the
// fault models (θ̂, ω̂); the golden traces and the memo are independent of
// them, so evaluators with different values may share one Golden.
func (g *Golden) NewEvaluator(values fault.Values) *Evaluator {
	e := &Evaluator{g: g, values: values, delta: make([]float64, snn.MaxTimesteps)}
	e.ps.init(g.ts.Arch)
	return e
}

// Coverage returns how many of the given faults the test set detects. On
// cancellation it returns (0, ctx.Err()).
//
//lint:ignore dead-code coverage oracle of the neurotest, baseline, compact, core and faultsim tests
func (e *Evaluator) Coverage(ctx context.Context, faults []fault.Fault) (int, error) {
	det, err := e.DetectsBatch(ctx, faults)
	n := 0
	for _, d := range det {
		if d {
			n++
		}
	}
	return n, err
}

// faultSite resolves a fault against one cached item: the deviating
// neuron's (layer, index) and its faulty spike train. ok is false when the
// fault is behaviourally inert on this item (input-layer threshold faults,
// stuck-at-programmed-value weights, always-on zero weights) — the caller
// must report it undetected without touching the trace. This is the one
// semantic definition of the five fault models; the packed kernel and the
// test-only scalar oracle both go through it. Collapse's synapse class
// key (collapse.go) is exactly what this function reads of a synapse fault
// and an item, so any new input here must join that key.
func (e *Evaluator) faultSite(ic *goldenItem, f fault.Fault) (layer, index int, faultyTrain uint64, ok bool) {
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
func (e *Evaluator) reintegrate(ic *goldenItem, layer, index int, theta float64, delta []float64) uint64 {
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
