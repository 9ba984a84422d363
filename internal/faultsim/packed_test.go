package faultsim

import (
	"context"
	"math/bits"
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

// randomTestSetT is randomTestSet with a configurable window and input mode.
func randomTestSetT(arch snn.Arch, nConfigs, patternsPer int, seed uint64, timesteps int, hold bool) *pattern.TestSet {
	params := snn.DefaultParams()
	rng := stats.NewRNG(seed)
	ts := pattern.NewTestSet("random", arch, params)
	for c := 0; c < nConfigs; c++ {
		cfg := snn.New(arch, params)
		for b := range cfg.W {
			for i := range cfg.W[b] {
				cfg.W[b][i] = -10 + 20*rng.Float64()
			}
		}
		ci := ts.AddConfig(cfg)
		for p := 0; p < patternsPer; p++ {
			pat := snn.NewPattern(arch.Inputs())
			for i := range pat {
				pat[i] = rng.Float64() < 0.4
			}
			ts.AddItem(pattern.Item{
				Label:       "rnd",
				ConfigIndex: ci,
				Pattern:     pat,
				Timesteps:   timesteps,
				Hold:        hold,
				Repeat:      1,
			})
		}
	}
	return ts
}

// fullUniverse concatenates every kind's universe.
func fullUniverse(arch snn.Arch) []fault.Fault {
	var universe []fault.Fault
	for _, kind := range fault.Kinds() {
		universe = append(universe, fault.Universe(arch, kind)...)
	}
	return universe
}

// assertPackedAgrees runs the whole universe through both packed drivers,
// the scalar oracle and brute-force simulation and fails on any verdict
// disagreement: per fault for DetectsBatch, per (fault, item) for
// DetectsMatrix. The oracle runs on its own Golden, so it never reads a
// verdict the packed kernel memoized.
func assertPackedAgrees(t *testing.T, ts *pattern.TestSet, values fault.Values, universe []fault.Fault) {
	t.Helper()
	scalar := newScalarOracle(NewGolden(ts, nil).NewEvaluator(values))
	packed := NewGolden(ts, nil).NewEvaluator(values)
	got := detectsBatch(t, packed, universe)
	if len(got) != len(universe) {
		t.Fatalf("DetectsBatch returned %d verdicts for %d faults", len(got), len(universe))
	}
	assertMatrixMatchesOracle(t, detectsMatrix(t, packed, universe), scalar, universe)
	for i, f := range universe {
		want := scalar.Detects(f)
		if got[i] != want {
			t.Errorf("%v: packed=%v scalar=%v", f, got[i], want)
		}
		if brute := bruteForceMode(ts, values, f); want != brute {
			t.Errorf("%v: scalar=%v brute=%v", f, want, brute)
		}
	}
}

// TestPackedMatchesScalarAndBrute is the packed kernel's load-bearing
// differential test: on random configurations and patterns, every fault of
// every model must get the same verdict from the packed kernel, the scalar
// oracle and full brute-force simulation, and the detection matrix must
// match the oracle on every (fault, item) pair.
func TestPackedMatchesScalarAndBrute(t *testing.T) {
	values := fault.PaperValues(0.5)
	arches := []snn.Arch{
		{4, 3, 2},
		{5, 4, 3, 2},
		{3, 1, 3}, // width-1 bottleneck
		{6, 5, 4, 3, 2},
	}
	for ai, arch := range arches {
		ts := randomTestSet(arch, 3, 4, uint64(500+ai))
		assertPackedAgrees(t, ts, values, fullUniverse(arch))
	}
}

// TestPackedSharesMemoWithScalar asserts the two paths speak the same memo:
// verdicts computed by a scalar evaluator must be served as hits to a
// packed evaluator over the same Golden, and vice versa.
func TestPackedSharesMemoWithScalar(t *testing.T) {
	values := fault.PaperValues(0.5)
	arch := snn.Arch{5, 4, 3, 2}
	ts := randomTestSet(arch, 2, 3, 77)
	universe := fault.Universe(arch, fault.ESF)

	g := NewGolden(ts, nil)
	scalar := newScalarOracle(g.NewEvaluator(values))
	want := make([]bool, len(universe))
	for i, f := range universe {
		want[i] = scalar.Detects(f)
	}

	before := Snapshot()
	packed := g.NewEvaluator(values)
	got := detectsBatch(t, packed, universe)
	d := statsDelta(Snapshot(), before)
	for i := range universe {
		if got[i] != want[i] {
			t.Errorf("%v: packed=%v scalar=%v", universe[i], got[i], want[i])
		}
	}
	if d.MemoMisses != 0 {
		t.Errorf("packed re-ran %d downstream passes the scalar path already memoized", d.MemoMisses)
	}
}

// TestPackGroupsPartition pins the grouping contract: every input index
// appears exactly once, groups are ≤64 lanes, homogeneous in kind and
// source layer, and ordered first-seen.
func TestPackGroupsPartition(t *testing.T) {
	arch := snn.Arch{6, 5, 4, 3}
	universe := fullUniverse(arch)
	groups := PackGroups(universe)
	seen := make([]bool, len(universe))
	last := -1
	for _, g := range groups {
		if len(g) == 0 || len(g) > 64 {
			t.Fatalf("group size %d out of range", len(g))
		}
		kind := universe[g[0]].Kind
		layer := sourceLayer(universe[g[0]])
		for _, i := range g {
			if seen[i] {
				t.Fatalf("index %d in two groups", i)
			}
			seen[i] = true
			if universe[i].Kind != kind || sourceLayer(universe[i]) != layer {
				t.Fatalf("group mixes (%v, %d) with (%v, %d)", kind, layer, universe[i].Kind, sourceLayer(universe[i]))
			}
		}
		if g[0] < last {
			t.Fatalf("groups not in first-seen order")
		}
		last = g[0]
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d missing from all groups", i)
		}
	}
}

// TestPackedT64Boundary exercises the full T == MaxTimesteps window end to
// end: bit 63 spikes must survive fullMask, reintegrate, the packed train
// patching and the monotone early-exit. The engineered fixture guarantees
// golden activity in the last timestep and at least one fault whose faulty
// train deviates in bit 63; the random fixtures add breadth.
func TestPackedT64Boundary(t *testing.T) {
	values := fault.PaperValues(0.5)

	t.Run("pinned", func(t *testing.T) {
		if fullMask(snn.MaxTimesteps) != ^uint64(0) {
			t.Fatalf("fullMask(%d) = %x", snn.MaxTimesteps, fullMask(snn.MaxTimesteps))
		}

		// Deterministically scan seeds for a one-item fixture that actually
		// exercises the boundary: golden spikes reach the output layer in
		// timestep 63 AND some fault's patched site train deviates in
		// timestep 63, so reintegrate, the packed patching and the final
		// front all see bit 63.
		const bit63 = uint64(1) << 63
		arch := snn.Arch{3, 3, 2}
		universe := fullUniverse(arch)
		var ts *pattern.TestSet
		for seed := uint64(0); seed < 200; seed++ {
			cand := randomTestSetT(arch, 1, 1, seed, snn.MaxTimesteps, true)
			g := NewGolden(cand, nil)
			ic := &g.items[0]
			out63 := false
			for _, train := range ic.trace.X[len(arch)-1] {
				if train&bit63 != 0 {
					out63 = true
				}
			}
			if !out63 {
				continue
			}
			e := g.NewEvaluator(values)
			dev63 := false
			for _, f := range universe {
				layer, index, train, ok := e.faultSite(ic, f)
				if ok && (train^ic.trace.X[layer][index])&bit63 != 0 {
					dev63 = true
					break
				}
			}
			if dev63 {
				ts = cand
				break
			}
		}
		if ts == nil {
			t.Fatal("no seed produced bit-63 output activity plus a bit-63 site deviation")
		}

		assertPackedAgrees(t, ts, values, universe)
	})

	t.Run("random", func(t *testing.T) {
		for seed := uint64(0); seed < 3; seed++ {
			ts := randomTestSetT(snn.Arch{4, 3, 3, 2}, 2, 2, 900+seed, snn.MaxTimesteps, true)
			assertPackedAgrees(t, ts, values, fullUniverse(snn.Arch{4, 3, 3, 2}))
		}
	})
}

// TestInertTrainSkipsMemo pins the inert-train shortcut: a fault whose
// reintegrated train equals the recorded golden train is behaviourally
// inert on that item, so the evaluator must report false WITHOUT running or
// memoizing a no-op downstream propagation. The unshortcut path would
// record one memo miss per (fault, item); the shortcut records none.
func TestInertTrainSkipsMemo(t *testing.T) {
	// Every weight is 5 and both inputs spike once, so the hidden neurons
	// fire in t=0 with or without one extra SWF/SASF delta — the faulty
	// trains equal the golden trains while the deltas themselves are far
	// from zero.
	values := fault.Values{ESFTheta: 0.05, HSFTheta: 0.95, SWFOmega: 7}
	arch := snn.Arch{2, 2, 2}
	params := snn.DefaultParams()
	ts := pattern.NewTestSet("inert", arch, params)
	cfg := snn.New(arch, params)
	cfg.Fill(5)
	ci := ts.AddConfig(cfg)
	ts.AddItem(pattern.Item{Label: "p", ConfigIndex: ci, Pattern: snn.OnesPattern(2), Timesteps: 1, Repeat: 1})

	universe := fault.Universe(arch, fault.SWF)
	// Restrict to boundary-0 faults: their site is the hidden layer, where
	// an unshortcut evaluation would reach the downstream memo.
	var hidden []fault.Fault
	for _, f := range universe {
		if f.Synapse.Boundary == 0 {
			hidden = append(hidden, f)
		}
	}
	if len(hidden) == 0 {
		t.Fatal("fixture broken: no boundary-0 SWF faults")
	}

	eng := NewGolden(ts, nil).NewEvaluator(values)
	// Precondition: the faults are NOT value-inert (ω̂ differs from the
	// programmed weight), their trains just happen to match the golden.
	ic := &eng.g.items[0]
	for _, f := range hidden {
		layer, index, train, ok := eng.faultSite(ic, f)
		if !ok {
			t.Fatalf("%v: fixture broken, fault is value-inert", f)
		}
		if train != ic.trace.X[layer][index] {
			t.Fatalf("%v: fixture broken, train %x deviates from golden %x", f, train, ic.trace.X[layer][index])
		}
	}

	scalarVerdicts := detectsEach(newScalarOracle(eng), hidden)
	packedVerdicts := detectsBatch(t, eng, hidden)
	for i, f := range hidden {
		if scalarVerdicts[i] {
			t.Errorf("scalar: %v detected despite an inert train", f)
		}
		if packedVerdicts[i] {
			t.Errorf("packed: %v detected despite an inert train", f)
		}
		if bruteForceMode(ts, values, f) {
			t.Errorf("brute force disagrees that %v is inert", f)
		}
	}

	// The shortcut's observable contract: no downstream pass ran, nothing
	// was memoized.
	before := Snapshot()
	fresh := NewGolden(ts, nil).NewEvaluator(values)
	freshOracle := newScalarOracle(fresh)
	for _, f := range hidden {
		if freshOracle.Detects(f) {
			t.Errorf("%v detected on fresh engine", f)
		}
	}
	detectsBatch(t, fresh.g.NewEvaluator(values), hidden)
	d := statsDelta(Snapshot(), before)
	if d.MemoMisses != 0 || d.MemoHits != 0 {
		t.Errorf("inert trains touched the memo: hits=%d misses=%d (want 0, 0)", d.MemoHits, d.MemoMisses)
	}
	if want := int64(2 * len(hidden)); d.FaultsSimulated != want {
		t.Errorf("faults simulated = %d, want %d", d.FaultsSimulated, want)
	}
}

// detectsEach runs the oracle's Detects per fault.
func detectsEach(o *scalarOracle, faults []fault.Fault) []bool {
	out := make([]bool, len(faults))
	for i, f := range faults {
		out[i] = o.Detects(f)
	}
	return out
}

// TestBatchFlushesObs mirrors TestMatrixFlushesObs for the batch entry
// points: one DetectsBatch call over a one-item set must flush the
// evaluator-local memo statistics, count every fault exactly once, and
// publish the same memo traffic as the equivalent fault-at-a-time scan.
func TestBatchFlushesObs(t *testing.T) {
	values := fault.PaperValues(0.5)
	arch := snn.Arch{4, 3, 2}
	ts := randomTestSet(arch, 1, 1, 11)
	universe := fault.Universe(arch, fault.SWF)

	e1 := NewGolden(ts, nil).NewEvaluator(values)
	before := Snapshot()
	detectsBatch(t, e1, universe)
	batch := statsDelta(Snapshot(), before)
	if e1.pendingMemoHits != 0 || e1.pendingMemoMisses != 0 {
		t.Errorf("pending stats not flushed: hits=%d misses=%d",
			e1.pendingMemoHits, e1.pendingMemoMisses)
	}
	if batch.FaultsSimulated != int64(len(universe)) {
		t.Errorf("faults simulated = %d, want %d (every fault of the batch)",
			batch.FaultsSimulated, len(universe))
	}

	// The same workload fault-at-a-time on a fresh engine: identical work,
	// so the published memo statistics must agree.
	e2 := newScalarOracle(NewGolden(ts, nil).NewEvaluator(values))
	before = Snapshot()
	detectsEach(e2, universe)
	scan := statsDelta(Snapshot(), before)
	if batch.MemoHits != scan.MemoHits || batch.MemoMisses != scan.MemoMisses {
		t.Errorf("batch published hits=%d misses=%d; scan published hits=%d misses=%d",
			batch.MemoHits, batch.MemoMisses, scan.MemoHits, scan.MemoMisses)
	}
	if batch.FaultsSimulated != scan.FaultsSimulated {
		t.Errorf("faults simulated: batch %d != scan %d", batch.FaultsSimulated, scan.FaultsSimulated)
	}

	// Coverage and Undetected route through the batch path and flush too.
	e3 := NewGolden(ts, nil).NewEvaluator(values)
	before = Snapshot()
	if _, err := e3.Coverage(context.Background(), universe); err != nil {
		t.Fatal(err)
	}
	if _, err := e3.Undetected(context.Background(), universe); err != nil {
		t.Fatal(err)
	}
	cov := statsDelta(Snapshot(), before)
	if e3.pendingMemoHits != 0 || e3.pendingMemoMisses != 0 {
		t.Errorf("Coverage/Undetected left pending stats: hits=%d misses=%d",
			e3.pendingMemoHits, e3.pendingMemoMisses)
	}
	if want := int64(2 * len(universe)); cov.FaultsSimulated != want {
		t.Errorf("faults simulated = %d, want %d (two batch calls)", cov.FaultsSimulated, want)
	}
}

// TestCoverageBatchMatchesScalarCount cross-checks the counting APIs, both
// derived from DetectsBatch, against the oracle on a larger mixed universe.
func TestCoverageBatchMatchesScalarCount(t *testing.T) {
	values := fault.PaperValues(0.5)
	arch := snn.Arch{5, 4, 3, 2}
	ts := randomTestSet(arch, 2, 3, 41)
	universe := fullUniverse(arch)

	g := NewGolden(ts, nil)
	scalar := newScalarOracle(NewGolden(ts, nil).NewEvaluator(values))
	n := 0
	for _, f := range universe {
		if scalar.Detects(f) {
			n++
		}
	}
	ctx := context.Background()
	if got, err := g.NewEvaluator(values).Coverage(ctx, universe); err != nil || got != n {
		t.Errorf("Coverage = %d (err %v), scalar count = %d", got, err, n)
	}
	missed, err := g.NewEvaluator(values).Undetected(ctx, universe)
	if err != nil {
		t.Fatal(err)
	}
	if len(missed) != len(universe)-n {
		t.Errorf("Undetected = %d faults, want %d", len(missed), len(universe)-n)
	}
}

// FuzzPackedEquivalence fuzzes the packed-vs-scalar-vs-brute agreement over
// random seeds, window lengths (including the 64-timestep boundary) and
// input modes, per fault for DetectsBatch and per (fault, item) for
// DetectsMatrix.
func FuzzPackedEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(5), false)
	f.Add(uint64(2), uint8(64), true)
	f.Add(uint64(3), uint8(63), false)
	f.Add(uint64(99), uint8(1), true)
	arch := snn.Arch{4, 3, 3, 2}
	values := fault.PaperValues(0.5)
	f.Fuzz(func(t *testing.T, seed uint64, t8 uint8, hold bool) {
		T := 1 + int(t8)%snn.MaxTimesteps
		ts := randomTestSetT(arch, 2, 2, seed, T, hold)
		universe := fullUniverse(arch)
		scalar := newScalarOracle(NewGolden(ts, nil).NewEvaluator(values))
		packed := NewGolden(ts, nil).NewEvaluator(values)
		got := detectsBatch(t, packed, universe)
		assertMatrixMatchesOracle(t, detectsMatrix(t, packed, universe), scalar, universe)
		for i, flt := range universe {
			want := scalar.Detects(flt)
			if got[i] != want {
				t.Fatalf("seed=%d T=%d hold=%v %v: packed=%v scalar=%v", seed, T, hold, flt, got[i], want)
			}
			if brute := bruteForceMode(ts, values, flt); want != brute {
				t.Fatalf("seed=%d T=%d hold=%v %v: scalar=%v brute=%v", seed, T, hold, flt, want, brute)
			}
		}
	})
}

// TestPackedNASFInputLayer pins the layer-0 downstream path of the packed
// kernel (NASF on input neurons patches the input layer itself).
func TestPackedNASFInputLayer(t *testing.T) {
	values := fault.PaperValues(0.5)
	arch := snn.Arch{4, 3, 2}
	ts := randomTestSet(arch, 2, 3, 55)
	g := NewGolden(ts, nil)
	scalar := newScalarOracle(g.NewEvaluator(values))
	var universe []fault.Fault
	for i := 0; i < arch[0]; i++ {
		universe = append(universe, fault.NewNeuronFault(fault.NASF, snn.NeuronID{Layer: 0, Index: i}))
	}
	got := detectsBatch(t, g.NewEvaluator(values), universe)
	for i, f := range universe {
		if want := scalar.Detects(f); got[i] != want {
			t.Errorf("%v: packed=%v scalar=%v", f, got[i], want)
		}
	}
	if bits.OnesCount64(fullMask(5)) != 5 {
		t.Fatalf("fullMask(5) wrong")
	}
}
