package faultsim

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/quant"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

// generatedSuite returns the merged program the generator builds for arch
// under reset, and the fault values it targets. Generated configurations
// give the synapses into a neuron the same weight, so their universes
// collapse.
func generatedSuite(t testing.TB, arch snn.Arch, reset snn.ResetMode) (*pattern.TestSet, fault.Values) {
	t.Helper()
	params := snn.DefaultParams()
	params.Reset = reset
	g, err := core.NewGenerator(core.Options{Arch: arch, Params: params, Values: fault.PaperValues(params.Theta)})
	if err != nil {
		t.Fatal(err)
	}
	_, merged := g.GenerateAll()
	return merged, g.Options().Values
}

// quantize4 is the 4-bit per-channel quantization scheme.
func quantize4(t testing.TB) *quant.Scheme {
	t.Helper()
	s, err := quant.NewScheme(4, quant.PerChannel)
	if err != nil {
		t.Fatal(err)
	}
	return &s
}

// shuffled returns faults in a seeded random order.
func shuffled(faults []fault.Fault, seed uint64) []fault.Fault {
	out := make([]fault.Fault, len(faults))
	for i, p := range stats.NewRNG(seed).Perm(len(faults)) {
		out[i] = faults[p]
	}
	return out
}

// assertCollapsedAgrees checks both collapsing drivers against the scalar
// oracle, which runs on its own Golden: every Detects verdict and every
// (fault, item) bit of DetectsMatrix.
func assertCollapsedAgrees(t *testing.T, ts *pattern.TestSet, values fault.Values, faults []fault.Fault) {
	t.Helper()
	oracle := newScalarOracle(mustGolden(t, ts), values)
	g := mustGolden(t, ts)
	got := detects(t, g, values, faults)
	for i, f := range faults {
		if want := oracle.Detects(f); got[i] != want {
			t.Fatalf("%v: collapsed=%v oracle=%v", f, got[i], want)
		}
	}
	assertMatrixMatchesOracle(t, detectsMatrix(t, g, values, faults), oracle, faults)
}

// TestCollapsedMatchesOracle is collapsing's differential test, on
// fixtures where classes actually form: generator-built programs and
// uniform-weight random programs on random small architectures, under both
// reset modes, ideal and through a 4-bit per-channel quantizer, with all
// five kinds mixed and shuffled. A second, untargeted set of fault values
// adds undetected faults.
func TestCollapsedMatchesOracle(t *testing.T) {
	rng := stats.NewRNG(17)
	untargeted := fault.Values{ESFTheta: 0.4, HSFTheta: 0.6, SWFOmega: 0.2}
	for trial := 0; trial < 5; trial++ {
		arch := make(snn.Arch, 3+rng.Intn(3))
		for k := range arch {
			arch[k] = 2 + rng.Intn(6)
		}
		faults := shuffled(fullUniverse(arch), uint64(trial))
		for _, reset := range []snn.ResetMode{snn.ResetZero, snn.ResetSubtract} {
			generated, values := generatedSuite(t, arch, reset)
			uniform := uniformTestSetT(arch, 2, 3, uint64(trial), 6, trial%2 == 0)
			uniform.Params.Reset = reset
			for _, cfg := range uniform.Configs {
				cfg.Params.Reset = reset
			}
			for _, ts := range []*pattern.TestSet{generated, uniform} {
				for _, scheme := range []*quant.Scheme{nil, quantize4(t)} {
					programmed := quant.Program(ts, scheme)
					if n := len(mustGolden(t, programmed).collapse(faults).reps); n >= len(faults) {
						t.Fatalf("%v %s: %d classes for %d faults; the fixture must collapse", arch, ts.Name, n, len(faults))
					}
					for _, v := range []fault.Values{values, untargeted} {
						assertCollapsedAgrees(t, programmed, v, faults)
					}
				}
			}
		}
	}
}

// nearMissSuite is a two-configuration, two-item program on 4-2-2 with
// uniform weights per boundary and every input held high, so each synapse
// universe collapses to one class per post neuron. tweak then edits the
// configurations or patterns before they are added.
func nearMissSuite(tweak func(cfgs []*snn.Network, pats []snn.Pattern)) *pattern.TestSet {
	arch := snn.Arch{4, 2, 2}
	params := snn.DefaultParams()
	var cfgs []*snn.Network
	var pats []snn.Pattern
	for _, w := range []float64{0.2, 0.35} {
		cfg := snn.New(arch, params)
		cfg.FillBoundary(0, w)
		cfg.FillBoundary(1, 0.6)
		cfgs = append(cfgs, cfg)
		pats = append(pats, snn.OnesPattern(arch[0]))
	}
	tweak(cfgs, pats)
	ts := pattern.NewTestSet("near-miss", arch, params)
	for c, cfg := range cfgs {
		ci := ts.AddConfig(cfg)
		ts.AddItem(pattern.Item{Label: "nm", ConfigIndex: ci, Pattern: pats[c], Timesteps: 6, Hold: true, Repeat: 1})
	}
	return ts
}

// classOf returns the class of the synapse fault (kind, 0, pre, post) in a
// collapse of faults.
func classOf(t *testing.T, faults []fault.Fault, cls classes, kind fault.Kind, pre, post int) int32 {
	t.Helper()
	want := fault.NewSynapseFault(kind, snn.SynapseID{Boundary: 0, Pre: pre, Post: post})
	for i, f := range faults {
		if f == want {
			return cls.of[i]
		}
	}
	t.Fatalf("%v not in the fault list", want)
	return -1
}

// TestCollapseKeepsNearMissesApart pins the exactness of the class key:
// synapses whose tuples differ in one bit of one weight on one
// configuration, in the presynaptic train on one item, or only in the
// sign of a zero weight stay in separate classes, while their untouched
// neighbours still collapse, and every verdict still matches the oracle.
func TestCollapseKeepsNearMissesApart(t *testing.T) {
	values := fault.PaperValues(snn.DefaultParams().Theta)
	cases := []struct {
		name  string
		kinds []fault.Kind
		post  int
		tweak func(cfgs []*snn.Network, pats []snn.Pattern)
	}{
		{"weight one ulp apart", []fault.Kind{fault.SWF, fault.SASF}, 0, func(cfgs []*snn.Network, _ []snn.Pattern) {
			w := cfgs[1].Entry(0, 1, 0)
			cfgs[1].SetEntry(0, 1, 0, math.Nextafter(w, math.Inf(1)))
		}},
		{"train differs on one item", []fault.Kind{fault.SWF, fault.SASF}, 0, func(_ []*snn.Network, pats []snn.Pattern) {
			pats[1][1] = false
		}},
		{"+0 against -0", []fault.Kind{fault.SWF, fault.SASF}, 1, func(cfgs []*snn.Network, _ []snn.Pattern) {
			for _, cfg := range cfgs {
				for i := 0; i < cfg.Arch[0]; i++ {
					cfg.W[0][i*cfg.Arch[1]+1] = 0
				}
				cfg.SetEntry(0, 1, 1, math.Copysign(0, -1))
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := nearMissSuite(tc.tweak)
			faults := fullUniverse(ts.Arch)
			cls := mustGolden(t, ts).collapse(faults)
			for _, kind := range tc.kinds {
				if classOf(t, faults, cls, kind, 0, tc.post) == classOf(t, faults, cls, kind, 1, tc.post) {
					t.Errorf("%v: synapses 0 and 1 into post %d share a class", kind, tc.post)
				}
				if classOf(t, faults, cls, kind, 0, tc.post) != classOf(t, faults, cls, kind, 2, tc.post) {
					t.Errorf("%v: untouched synapses 0 and 2 into post %d do not collapse", kind, tc.post)
				}
			}
			assertCollapsedAgrees(t, ts, values, faults)
		})
	}
}

// TestCollapseDuplicates: a fault listed twice lands in one class with
// one verdict, and neuron faults collapse with nothing but their own exact
// duplicates — not even a copy that differs in an unused field.
func TestCollapseDuplicates(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	ts, values := generatedSuite(t, arch, snn.ResetZero)
	universe := fullUniverse(arch)
	faults := append(append([]fault.Fault{}, universe...), universe...)
	g := mustGolden(t, ts)
	cls := g.collapse(faults)
	n := len(universe)
	for i := range universe {
		if cls.of[i] != cls.of[n+i] {
			t.Fatalf("%v: copies in classes %d and %d", universe[i], cls.of[i], cls.of[n+i])
		}
	}
	if len(cls.reps) != len(g.collapse(universe).reps) {
		t.Errorf("duplicates opened classes: %d for the doubled list", len(cls.reps))
	}
	stray := universe[0]
	stray.Synapse.Post = 1
	if c := g.collapse([]fault.Fault{universe[0], stray, universe[0]}); c.of[0] == c.of[1] || c.of[0] != c.of[2] {
		t.Errorf("%v and its copy with a stray synapse field: classes %v, want the copy alone", universe[0], c.of)
	}
	members := make(map[int32][]fault.Fault)
	for i := range universe {
		members[cls.of[i]] = append(members[cls.of[i]], universe[i])
	}
	for _, m := range members {
		if m[0].Kind.IsNeuronFault() && len(m) > 1 {
			t.Errorf("distinct neuron faults share a class: %v", m)
		}
	}
	got := detects(t, mustGolden(t, ts), values, faults)
	for i := range universe {
		if got[i] != got[n+i] {
			t.Errorf("%v: copies got %v and %v", universe[i], got[i], got[n+i])
		}
	}
	assertCollapsedAgrees(t, ts, values, faults)
}

// partition labels each fault of a duplicate-free list with its class's
// smallest member under order, so two collapses of the same faults agree
// on every label exactly when they are the same partition.
func partition(faults []fault.Fault, cls classes, order map[fault.Fault]int) map[fault.Fault]int {
	low := make([]int, len(cls.reps))
	for k := range low {
		low[k] = math.MaxInt
	}
	for i, f := range faults {
		low[cls.of[i]] = min(low[cls.of[i]], order[f])
	}
	out := make(map[fault.Fault]int, len(faults))
	for i, f := range faults {
		out[f] = low[cls.of[i]]
	}
	return out
}

// permuteLayer returns ts with the neurons of layer k relabelled by perm —
// neuron i becomes neuron perm[i] in the patterns (k = 0), in the columns
// of boundary k-1 and in the rows of boundary k — and the matching map of
// faults.
func permuteLayer(ts *pattern.TestSet, k int, perm []int) (*pattern.TestSet, func(fault.Fault) fault.Fault) {
	arch := ts.Arch
	out := pattern.NewTestSet(ts.Name, arch, ts.Params)
	for _, cfg := range ts.Configs {
		c := cfg.Clone()
		for i := 0; k > 0 && i < arch[k-1]; i++ {
			for j := 0; j < arch[k]; j++ {
				c.SetEntry(k-1, i, perm[j], cfg.Entry(k-1, i, j))
			}
		}
		for i := 0; k < arch.Boundaries() && i < arch[k]; i++ {
			for j := 0; j < arch[k+1]; j++ {
				c.SetEntry(k, perm[i], j, cfg.Entry(k, i, j))
			}
		}
		out.AddConfig(c)
	}
	for _, it := range ts.Items {
		if k == 0 {
			p := snn.NewPattern(arch[0])
			for i, on := range it.Pattern {
				p[perm[i]] = on
			}
			it.Pattern = p
		}
		out.AddItem(it)
	}
	moved := func(f fault.Fault) fault.Fault {
		switch {
		case f.Kind.IsNeuronFault() && f.Neuron.Layer == k:
			f.Neuron.Index = perm[f.Neuron.Index]
		case f.Kind.IsSynapseFault() && f.Synapse.Boundary == k:
			f.Synapse.Pre = perm[f.Synapse.Pre]
		case f.Kind.IsSynapseFault() && f.Synapse.Boundary == k-1:
			f.Synapse.Post = perm[f.Synapse.Post]
		}
		return f
	}
	return out, moved
}

// TestCollapsePartitionInvariant is collapsing's metamorphic test: the
// partition does not depend on the order the faults are listed in, and
// relabelling the pre neurons of a boundary relabels the partition and
// nothing else.
func TestCollapsePartitionInvariant(t *testing.T) {
	for ai, arch := range []snn.Arch{{6, 5, 4}, {7, 5, 3, 2}} {
		ts, _ := generatedSuite(t, arch, snn.ResetZero)
		universe := fullUniverse(arch)
		order := make(map[fault.Fault]int, len(universe))
		for i, f := range universe {
			order[f] = i
		}
		want := partition(universe, mustGolden(t, ts).collapse(universe), order)

		for seed := uint64(0); seed < 3; seed++ {
			faults := shuffled(universe, seed)
			got := partition(faults, mustGolden(t, ts).collapse(faults), order)
			for _, f := range universe {
				if got[f] != want[f] {
					t.Fatalf("%v seed %d: %v labelled %d, want %d", arch, seed, f, got[f], want[f])
				}
			}
		}

		for k := 0; k < arch.Boundaries(); k++ {
			perm := stats.NewRNG(uint64(40 + 10*ai + k)).Perm(arch[k])
			pts, moved := permuteLayer(ts, k, perm)
			permuted := make([]fault.Fault, len(universe))
			// Label the permuted faults by their preimages' positions, so
			// equal partitions give equal labels.
			porder := make(map[fault.Fault]int, len(universe))
			for i, f := range universe {
				permuted[i] = moved(f)
				porder[permuted[i]] = i
			}
			got := partition(permuted, mustGolden(t, pts).collapse(permuted), porder)
			for _, f := range universe {
				if got[moved(f)] != want[f] {
					t.Fatalf("%v: permuting layer %d relabelled %v's class to %d, want %d", arch, k, f, got[moved(f)], want[f])
				}
			}
		}
	}
}

// TestCollapsePaperModels pins the class counts of the paper's models: one
// class per post-synaptic neuron for each synapse kind against its own
// program (298 on 576-256-32-10, 362 on 576-256-64-32-10), and no collapse
// at all for the 894 neuron faults of the 4-layer merged program.
func TestCollapsePaperModels(t *testing.T) {
	for _, tc := range []struct {
		arch    snn.Arch
		classes int
	}{
		{snn.Arch{576, 256, 32, 10}, 298},
		{snn.Arch{576, 256, 64, 32, 10}, 362},
	} {
		params := snn.DefaultParams()
		gen, err := core.NewGenerator(core.Options{Arch: tc.arch, Params: params, Values: fault.PaperValues(params.Theta)})
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []fault.Kind{fault.SWF, fault.SASF} {
			universe := fault.Universe(tc.arch, kind)
			if n := len(mustGolden(t, gen.Generate(kind)).collapse(universe).reps); n != tc.classes {
				t.Errorf("%v %v: %d classes for %d faults, want %d", tc.arch, kind, n, len(universe), tc.classes)
			}
		}
		if tc.arch.Layers() != 4 {
			continue
		}
		_, merged := gen.GenerateAll()
		var neurons []fault.Fault
		for _, kind := range fault.NeuronKinds() {
			neurons = append(neurons, fault.Universe(tc.arch, kind)...)
		}
		if n := len(mustGolden(t, merged).collapse(neurons).reps); len(neurons) != 894 || n != 894 {
			t.Errorf("%v neuron faults: %d classes for %d faults, want 894 of 894", tc.arch, n, len(neurons))
		}
	}
}

// TestCollapseSingletonsOutOfRange: faults that could panic never join a
// class — unknown kinds and sites outside the architecture, even listed
// twice — while the valid faults around them still collapse.
func TestCollapseSingletonsOutOfRange(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	ts, _ := generatedSuite(t, arch, snn.ResetZero)
	universe := fault.Universe(arch, fault.SWF)
	bogus := []fault.Fault{
		{Kind: fault.SWF, Synapse: snn.SynapseID{Boundary: 0, Pre: 99, Post: 0}},
		{Kind: fault.SASF, Synapse: snn.SynapseID{Boundary: 2, Pre: 0, Post: 0}},
		{Kind: fault.NASF, Neuron: snn.NeuronID{Layer: 1, Index: -1}},
		{Kind: fault.Kind(42)},
	}
	faults := append(append(append([]fault.Fault{}, bogus...), universe...), bogus...)
	g := mustGolden(t, ts)
	cls := g.collapse(faults)
	size := make(map[int32]int)
	for _, k := range cls.of {
		size[k]++
	}
	for i, f := range faults {
		valid := i >= len(bogus) && i < len(bogus)+len(universe)
		if !valid && size[cls.of[i]] != 1 {
			t.Errorf("%v at %d shares class %d with %d faults", f, i, cls.of[i], size[cls.of[i]])
		}
	}
	if want := len(g.collapse(universe).reps) + 2*len(bogus); len(cls.reps) != want || cls.outside != 2*len(bogus) {
		t.Errorf("%d classes with %d outside the chip, want %d with %d", len(cls.reps), cls.outside, want, 2*len(bogus))
	}
}

// TestCollapseConcurrentFirstUse races collapse calls on a fresh Golden,
// so the lazily built collapse index is first needed by several goroutines
// at once (the shape of concurrent campaigns on one ATE). Every call must
// return the serial partition; under -race this also gates the index's
// one-time build.
func TestCollapseConcurrentFirstUse(t *testing.T) {
	arch := snn.Arch{7, 5, 3, 2}
	ts, _ := generatedSuite(t, arch, snn.ResetZero)
	faults := shuffled(fullUniverse(arch), 5)
	want := mustGolden(t, ts).collapse(faults)

	g := mustGolden(t, ts)
	const workers = 4
	got := make([]classes, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = g.collapse(faults)
		}(w)
	}
	wg.Wait()
	for w, c := range got {
		if !slices.Equal(c.reps, want.reps) || !slices.Equal(c.of, want.of) {
			t.Errorf("worker %d: partition differs from the serial collapse", w)
		}
	}
}

// TestCollapseAccounting pins the obs contract of collapsing drivers (see
// flush): faults simulated counts every input fault, fault classes one per
// representative, and memo traffic is that of a call over the
// representatives alone — members add none. DetectsMatrix splits by item,
// so its memo hits and misses match at any worker count. Detects' groups
// share the memo, so its split is pinned at one worker, and only the sum
// of hits and misses at several.
func TestCollapseAccounting(t *testing.T) {
	arch := snn.Arch{7, 5, 3, 2}
	ts, values := generatedSuite(t, arch, snn.ResetZero)
	faults := shuffled(fullUniverse(arch), 9)
	cls := mustGolden(t, ts).collapse(faults)
	reps := make([]fault.Fault, len(cls.reps))
	for k, i := range cls.reps {
		reps[k] = faults[i]
	}
	if len(reps) >= len(faults) {
		t.Fatalf("fixture broken: %d faults form %d classes", len(faults), len(reps))
	}
	for _, driver := range []struct {
		name  string
		run   func(g *Golden, faults []fault.Fault)
		procs []int // GOMAXPROCS values at which the memo split must match exactly
	}{
		{"Detects", func(g *Golden, faults []fault.Fault) { detects(t, g, values, faults) }, []int{1}},
		{"DetectsMatrix", func(g *Golden, faults []fault.Fault) { detectsMatrix(t, g, values, faults) }, []int{1, 4}},
	} {
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			before := Snapshot()
			driver.run(mustGolden(t, ts), faults)
			all := statsDelta(Snapshot(), before)
			before = Snapshot()
			driver.run(mustGolden(t, ts), reps)
			alone := statsDelta(Snapshot(), before)
			runtime.GOMAXPROCS(prev)
			if all.FaultsSimulated != int64(len(faults)) || all.Classes != int64(len(reps)) {
				t.Errorf("%s at %d procs: %d faults in %d classes, want %d in %d",
					driver.name, procs, all.FaultsSimulated, all.Classes, len(faults), len(reps))
			}
			if all.MemoHits+all.MemoMisses != alone.MemoHits+alone.MemoMisses {
				t.Errorf("%s at %d procs: %d memo lookups; representatives alone %d",
					driver.name, procs, all.MemoHits+all.MemoMisses, alone.MemoHits+alone.MemoMisses)
			}
			if slices.Contains(driver.procs, procs) && (all.MemoHits != alone.MemoHits || all.MemoMisses != alone.MemoMisses) {
				t.Errorf("%s at %d procs: memo hits=%d misses=%d; representatives alone hits=%d misses=%d",
					driver.name, procs, all.MemoHits, all.MemoMisses, alone.MemoHits, alone.MemoMisses)
			}
		}
	}
}
