package faultsim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/quant"
	"neurotest/internal/snn"
)

// statsDelta subtracts two snapshots field-wise.
func statsDelta(after, before Stats) Stats {
	return Stats{
		GoldenBuilds:    after.GoldenBuilds - before.GoldenBuilds,
		FaultsSimulated: after.FaultsSimulated - before.FaultsSimulated,
		Classes:         after.Classes - before.Classes,
		MemoHits:        after.MemoHits - before.MemoHits,
		MemoMisses:      after.MemoMisses - before.MemoMisses,
	}
}

// TestMatrixFlushesObs pins the matrix accounting (see flush): one
// DetectsMatrix call counts every fault exactly once however many items it
// ran on, and over a one-item set publishes exactly the memo traffic of a
// Detects call at one worker, where both run the groups in order on that
// item.
func TestMatrixFlushesObs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	values := fault.PaperValues(0.5)
	arch := snn.Arch{4, 3, 2}
	universe := fault.Universe(arch, fault.SWF)

	multi := mustGolden(t, randomTestSet(arch, 2, 3, 11))
	before := Snapshot()
	detectsMatrix(t, multi, values, universe)
	if d := statsDelta(Snapshot(), before); d.FaultsSimulated != int64(len(universe)) {
		t.Errorf("faults simulated = %d over 6 items, want %d (one per fault)", d.FaultsSimulated, len(universe))
	}

	ts := randomTestSet(arch, 1, 1, 11)
	before = Snapshot()
	detectsMatrix(t, mustGolden(t, ts), values, universe)
	matrix := statsDelta(Snapshot(), before)
	if matrix.FaultsSimulated != int64(len(universe)) {
		t.Errorf("faults simulated = %d, want %d (one per fault)",
			matrix.FaultsSimulated, len(universe))
	}

	// The same workload through Detects on a fresh Golden: with a single
	// item the two drivers do identical work, so the published memo
	// statistics must agree.
	before = Snapshot()
	detects(t, mustGolden(t, ts), values, universe)
	cov := statsDelta(Snapshot(), before)
	if matrix.MemoHits != cov.MemoHits || matrix.MemoMisses != cov.MemoMisses {
		t.Errorf("DetectsMatrix published hits=%d misses=%d; Detects published hits=%d misses=%d",
			matrix.MemoHits, matrix.MemoMisses, cov.MemoHits, cov.MemoMisses)
	}
	if matrix.FaultsSimulated != cov.FaultsSimulated {
		t.Errorf("faults simulated: matrix %d != coverage %d", matrix.FaultsSimulated, cov.FaultsSimulated)
	}
}

// TestDriversSkipFaultsOutsideChip: a fault that is not a fault of the
// chip (fault.Fault.In) — a site outside the architecture, an unknown kind
// — is never simulated. Detects gives it no verdict and DetectsMatrix no
// row, while the faults around it get the verdicts and rows they get
// without it, and faults simulated counts them alone.
func TestDriversSkipFaultsOutsideChip(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	ts, values := generatedSuite(t, arch, snn.ResetZero)
	universe := fault.Universe(arch, fault.SWF)
	bogus := []fault.Fault{
		{Kind: fault.SWF, Synapse: snn.SynapseID{Boundary: 0, Pre: 99, Post: 0}},
		{Kind: fault.NASF, Neuron: snn.NeuronID{Layer: 1, Index: 5}},
		{Kind: fault.Kind(42)},
	}
	faults := append(append(append([]fault.Fault{}, bogus[:1]...), universe...), bogus[1:]...)
	want := detects(t, mustGolden(t, ts), values, universe)
	wantRows := detectsMatrix(t, mustGolden(t, ts), values, universe)

	g := mustGolden(t, ts)
	before := Snapshot()
	v, err := g.Detects(context.Background(), values, faults)
	if err != nil {
		t.Fatal(err)
	}
	if d := statsDelta(Snapshot(), before); d.FaultsSimulated != int64(len(universe)) {
		t.Errorf("Detects: faults simulated = %d, want the %d faults of the chip", d.FaultsSimulated, len(universe))
	}
	if v.Classes() != len(g.collapse(universe).reps)+len(bogus) {
		t.Errorf("Detects: %d classes, want each fault outside the chip as its own", v.Classes())
	}
	before = Snapshot()
	rows := detectsMatrix(t, g, values, faults)
	if d := statsDelta(Snapshot(), before); d.FaultsSimulated != int64(len(universe)) {
		t.Errorf("DetectsMatrix: faults simulated = %d, want the %d faults of the chip", d.FaultsSimulated, len(universe))
	}
	for i, f := range faults {
		det, ok := v.Detected(i)
		if k := i - 1; f.In(arch) {
			if !ok || det != want[k] || !slices.Equal(rows[i], wantRows[k]) {
				t.Errorf("%v: verdict (%v, %v), row %x; alone (%v, true), row %x", f, det, ok, rows[i], want[k], wantRows[k])
			}
		} else if ok || rows[i] != nil {
			t.Errorf("%v outside the chip: verdict (%v, %v), row %x", f, det, ok, rows[i])
		}
	}
}

// TestMatrixMemoAccountingAnyWorkerCount: DetectsMatrix on fresh Goldens of
// one test set returns the same matrix and publishes the same memo hits and
// misses at GOMAXPROCS 1 and 4. Each item's memo shard has one writer that
// visits its keys in serial group order, whatever the worker count. The
// workload is the random-matrix benchmark's: nothing collapses, so 172
// packed groups share memo keys across groups, and a split by group would
// let two workers miss the same key at once.
func TestMatrixMemoAccountingAnyWorkerCount(t *testing.T) {
	arch := snn.Arch{96, 48, 16, 8}
	ts := balancedTestSetT(arch, 2, 4, 7, 16)
	values := fault.PaperValues(ts.Params.Theta)
	faults := append(fault.Universe(arch, fault.SWF), fault.Universe(arch, fault.SASF)...)
	run := func(procs int) ([][]uint64, Stats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		before := Snapshot()
		rows := detectsMatrix(t, mustGolden(t, ts), values, faults)
		return rows, statsDelta(Snapshot(), before)
	}
	wantRows, want := run(1)
	if want.MemoHits == 0 {
		t.Fatalf("fixture broken: no memo hits over %d faults", len(faults))
	}
	for rep := 0; rep < 3; rep++ {
		rows, got := run(4)
		if got != want {
			t.Errorf("GOMAXPROCS 4 published %+v, GOMAXPROCS 1 published %+v", got, want)
		}
		if !slices.EqualFunc(rows, wantRows, slices.Equal[[]uint64]) {
			t.Errorf("the detection matrix depends on the worker count")
		}
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
	g := mustGolden(t, ts)
	var input []fault.Fault
	for _, kind := range []fault.Kind{fault.ESF, fault.HSF} {
		for i := 0; i < arch[0]; i++ {
			input = append(input, fault.NewNeuronFault(kind, snn.NeuronID{Layer: 0, Index: i}))
		}
	}
	for i, det := range detects(t, g, values, input) {
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
// NewGolden call, many Detects calls on separate goroutines — each with a
// pool and evaluators of its own — racing over the same items and memo
// shards, and every verdict identical to a serial oracle. Run under -race
// this also gates the memo's locking discipline.
func TestConcurrentEvaluatorsShareGolden(t *testing.T) {
	values := fault.PaperValues(0.5)
	arch := snn.Arch{5, 4, 3, 2}
	ts := randomTestSet(arch, 2, 3, 31)
	var universe []fault.Fault
	for _, kind := range fault.Kinds() {
		universe = append(universe, fault.Universe(arch, kind)...)
	}

	want := detectsEach(newScalarOracle(mustGolden(t, ts), values), universe)

	before := Snapshot()
	g := mustGolden(t, ts)
	const workers = 4
	got := make([]bool, len(universe))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Strided split into single-fault calls: workers interleave
			// over the universe so every worker touches every item's memo
			// shard.
			for i := w; i < len(universe); i += workers {
				v, err := g.Detects(context.Background(), values, universe[i:i+1])
				if err != nil {
					t.Error(err)
					return
				}
				got[i], _ = v.Detected(0)
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

// goldenPotentials is the reference the packed kernel's seeds are checked
// against: the LIF recurrence written out independently of snn.Step,
// replayed over the recorded weighted sums, recording every neuron's
// potential after each timestep (post reset), indexed like Trace.Y.
func goldenPotentials(net *snn.Network, trace *snn.Trace) [][]float64 {
	arch := net.Arch
	L := arch.Layers()
	T := trace.Timesteps
	theta := net.Params.Theta
	leak := net.Params.Leak
	subtract := net.Params.Reset == snn.ResetSubtract
	gmp := make([][]float64, L)
	for k := 1; k < L; k++ {
		width := arch[k]
		y := trace.Y[k]
		m := make([]float64, T*width)
		for j := 0; j < width; j++ {
			var mp float64
			for t := 0; t < T; t++ {
				mp = leak*mp + y[t*width+j]
				if mp > theta {
					if subtract {
						mp -= theta
					} else {
						mp = 0
					}
				}
				m[t*width+j] = mp
			}
		}
		gmp[k] = m
	}
	return gmp
}

// TestSeedsMatchReplay pins the packed kernel's seed: the golden potential
// entering timestep t+1, derived from the trace's pre-reset V and spike
// bit, must equal the replayed post-reset potential of t bit for bit, for
// every (layer, neuron, t) — on the 4-layer paper model's merged program
// and on a balanced random set, in both reset modes.
func TestSeedsMatchReplay(t *testing.T) {
	for _, reset := range []snn.ResetMode{snn.ResetZero, snn.ResetSubtract} {
		paper, _ := generatedSuite(t, snn.Arch{576, 256, 32, 10}, reset)
		balanced := balancedTestSetT(snn.Arch{12, 10, 8, 4}, 2, 3, 7, 16)
		balanced.Params.Reset = reset
		for _, cfg := range balanced.Configs {
			cfg.Params.Reset = reset
		}
		for _, ts := range []*pattern.TestSet{paper, balanced} {
			g := mustGolden(t, ts)
			fired := 0
			for i := range g.items {
				ic := &g.items[i]
				want := goldenPotentials(ic.net, ic.trace)
				if math.Float64bits(ic.enter(1, 0, 0)) != 0 {
					t.Fatalf("%v %s item %d: nonzero potential entering t=0", reset, ts.Name, i)
				}
				for k := 1; k < ts.Arch.Layers(); k++ {
					width := ts.Arch[k]
					for tt := 0; tt < ic.item.Timesteps; tt++ {
						for j := 0; j < width; j++ {
							got, w := ic.enter(k, j, tt+1), want[k][tt*width+j]
							if math.Float64bits(got) != math.Float64bits(w) {
								t.Fatalf("%v %s item %d n[%d,%d] t=%d: seed %v, replay %v", reset, ts.Name, i, k, j, tt, got, w)
							}
							if ic.trace.X[k][j]&(1<<uint(tt)) != 0 {
								fired++
							}
						}
					}
				}
			}
			if fired == 0 {
				t.Fatalf("%v %s: fixture broken, no golden neuron fired", reset, ts.Name)
			}
		}
	}
}

// sameTrace reports the first difference between two traces, comparing
// every spike train, weighted sum and potential bit for bit.
func sameTrace(got, want *snn.Trace) error {
	if got.Timesteps != want.Timesteps || len(got.X) != len(want.X) {
		return fmt.Errorf("%d timesteps over %d layers, want %d over %d", got.Timesteps, len(got.X), want.Timesteps, len(want.X))
	}
	bitsEqual := func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) }
	for k := range want.X {
		if !slices.Equal(got.X[k], want.X[k]) {
			return fmt.Errorf("layer %d spike trains %v, want %v", k, got.X[k], want.X[k])
		}
		if !slices.EqualFunc(got.Y[k], want.Y[k], bitsEqual) {
			return fmt.Errorf("layer %d weighted sums %v, want %v", k, got.Y[k], want.Y[k])
		}
		if !slices.EqualFunc(got.V[k], want.V[k], bitsEqual) {
			return fmt.Errorf("layer %d potentials %v, want %v", k, got.V[k], want.V[k])
		}
	}
	return nil
}

// TestGoldenMatchesRunTraceOracle: NewGolden, which sums each item
// group's layer-1 input once and traces every item from its group's sum,
// records each item's result and trace exactly as a fresh simulator's
// RunTrace of that item alone does, bit for bit. It covers generated
// suites, whose configurations share arrays, with a held twin of every
// item; their binary-codec round trips, which share no arrays, so the
// grouping compares weights; their 8-bit per-channel programs; and both
// reset modes.
func TestGoldenMatchesRunTraceOracle(t *testing.T) {
	scheme, err := quant.NewScheme(8, quant.PerChannel)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []snn.Arch{{10, 8, 6, 3}, {576, 256, 32, 10}} {
		for _, reset := range []snn.ResetMode{snn.ResetZero, snn.ResetSubtract} {
			suite, _ := generatedSuite(t, arch, reset)
			for _, it := range slices.Clone(suite.Items) {
				it.Hold = true
				suite.AddItem(it)
			}
			var buf bytes.Buffer
			if err := pattern.WriteBinary(&buf, suite); err != nil {
				t.Fatal(err)
			}
			decoded, err := pattern.ReadBinary(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if &decoded.Configs[0].W[0][0] == &decoded.Configs[1].W[0][0] {
				t.Fatal("the decoded suite shares arrays")
			}
			for name, ts := range map[string]*pattern.TestSet{
				"generated": suite, "decoded": decoded, "8-bit per-channel": quant.Program(suite, &scheme),
			} {
				g := mustGolden(t, ts)
				if want := len(suite.Items); g.groups < 1 || g.groups > want/2 {
					t.Errorf("%v %v %s: %d groups over %d items, each with its held twin", arch, reset, name, g.groups, want)
				}
				for i, it := range ts.Items {
					res, trace := snn.NewSimulator(ts.Configs[it.ConfigIndex]).RunTrace(it.Pattern, it.Timesteps, it.Mode(), nil)
					if !g.Result(i).Equal(res) {
						t.Fatalf("%v %v %s item %d: result %v, RunTrace %v", arch, reset, name, i, g.Result(i), res)
					}
					if err := sameTrace(g.items[i].trace, trace); err != nil {
						t.Fatalf("%v %v %s item %d: %v", arch, reset, name, i, err)
					}
				}
			}
		}
	}
}

// TestGoldenGroupCounts: the golden build of each paper model's merged
// program adds up one layer-1 sum per item group, as many as its dies do:
// 7 without variation margins and 14 with them, whatever the depth, on
// the suite as generated and on its codec round trip alike.
func TestGoldenGroupCounts(t *testing.T) {
	params := snn.DefaultParams()
	for _, c := range []struct {
		arch          snn.Arch
		regime        core.Regime
		items, groups int
	}{
		{snn.Arch{576, 256, 32, 10}, core.NoVariation(), 13, 7},
		{snn.Arch{576, 256, 64, 32, 10}, core.NoVariation(), 17, 7},
		{snn.Arch{576, 256, 32, 10}, core.NegligibleVariation(), 28, 14},
		{snn.Arch{576, 256, 64, 32, 10}, core.NegligibleVariation(), 37, 14},
	} {
		gen, err := core.NewGenerator(core.Options{Arch: c.arch, Params: params, Values: fault.PaperValues(params.Theta), Regime: c.regime})
		if err != nil {
			t.Fatal(err)
		}
		_, merged := gen.GenerateAll()
		var buf bytes.Buffer
		if err := pattern.WriteBinary(&buf, merged); err != nil {
			t.Fatal(err)
		}
		decoded, err := pattern.ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, ts := range []*pattern.TestSet{merged, decoded} {
			if g := mustGolden(t, ts); len(ts.Items) != c.items || g.groups != c.groups {
				t.Errorf("%v %v: %d items in %d groups, want %d in %d", c.arch, c.regime, len(ts.Items), g.groups, c.items, c.groups)
			}
		}
	}
}

// TestNewGoldenValidates: NewGolden rejects a test set it cannot simulate
// with the validation error, before simulating anything. Cutting one weight
// from boundary 1 of configuration 0 of a generated suite, which
// pattern.TestSet.Validate once let through to an index panic in the
// packed kernel, fails the build with an error naming the configuration.
func TestNewGoldenValidates(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	ts, _ := generatedSuite(t, arch, snn.ResetZero)
	cfg := ts.Configs[0].Clone()
	cfg.W[1] = cfg.W[1][:len(cfg.W[1])-1]
	ts.Configs[0] = cfg
	before := Snapshot()
	g, err := NewGolden(ts)
	if g != nil || err == nil || !strings.Contains(err.Error(), "config 0") || !strings.Contains(err.Error(), "boundary 1") {
		t.Fatalf("NewGolden = (%v, %v), want an error naming config 0 and its boundary 1", g, err)
	}
	if d := Snapshot().GoldenBuilds - before.GoldenBuilds; d != 0 {
		t.Errorf("a rejected set counted %d golden builds", d)
	}
}
