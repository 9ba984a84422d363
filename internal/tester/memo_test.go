package tester

import (
	"math"
	"slices"
	"sync"
	"testing"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/quant"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
	"neurotest/internal/unreliable"
	"neurotest/internal/variation"
)

// oracleSameInput is the item-group predicate written out: items i and j
// of a have equal patterns and bit-identical programmed boundary-0
// weights, compared word by word.
func oracleSameInput(a *ATE, i, j int) bool {
	x, y := a.ts.Items[i], a.ts.Items[j]
	return slices.Equal(x.Pattern, y.Pattern) &&
		slices.EqualFunc(a.nets[x.ConfigIndex].W[0], a.nets[y.ConfigIndex].W[0], func(u, v float64) bool {
			return math.Float64bits(u) == math.Float64bits(v)
		})
}

// checkGroups fails unless a's item groups are exactly the classes of
// oracleSameInput, numbered in order of their first member, each group's
// weight sum is its pattern's programmed rows added in neuron order, and
// a's atoms are oracleAtoms', each group listing the atoms its pattern
// drives; it returns the groups and their number.
func checkGroups(t *testing.T, a *ATE) ([]int, int) {
	t.Helper()
	l := a.input.get()
	of, n := l.group, len(l.sums)
	next := 0
	for i := range a.ts.Items {
		for j := 0; j < i; j++ {
			if same := oracleSameInput(a, i, j); (of[i] == of[j]) != same {
				t.Fatalf("items %d and %d: groups %d and %d, but equal input %t", j, i, of[j], of[i], same)
			}
		}
		switch {
		case of[i] == next:
			next++
		case of[i] > next:
			t.Fatalf("item %d opens group %d before group %d", i, of[i], next)
		}
	}
	if next != n {
		t.Fatalf("%d groups numbered, %d reported", next, n)
	}
	width := a.ts.Arch[1]
	for i, it := range a.ts.Items {
		want := make([]float64, width)
		w := a.nets[it.ConfigIndex].W[0]
		for k, on := range it.Pattern {
			for j := 0; on && j < width; j++ {
				want[j] += w[k*width+j]
			}
		}
		if !slices.EqualFunc(l.sums[of[i]], want, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) }) {
			t.Fatalf("item %d: group %d's weight sum is not its pattern's rows added in order", i, of[i])
		}
	}
	atomOf, members := oracleAtoms(a)
	if !slices.Equal(l.atom, atomOf) {
		t.Fatalf("atoms %v, want %v", l.atom, atomOf)
	}
	for k, m := range members {
		if l.size[k] != len(m) {
			t.Fatalf("atom %d holds %d neurons, want %d", k, l.size[k], len(m))
		}
	}
	for i, it := range a.ts.Items {
		var want []int
		for k, m := range members {
			if it.Pattern[m[0]] {
				want = append(want, k)
			}
		}
		if got := l.atoms[of[i]]; !slices.Equal(got, want) {
			t.Fatalf("item %d: group %d drives atoms %v, want %v", i, of[i], got, want)
		}
	}
	return of, n
}

// TestItemGroupCounts pins how the merged programs of the paper's two
// models group: each die sums 7 (no variation) or 14 (negligible
// variation) distinct layer-1 inputs, whatever its depth.
func TestItemGroupCounts(t *testing.T) {
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
		_, merged := smallSuite(t, c.arch, c.regime)
		_, n := checkGroups(t, New(merged, nil))
		if len(merged.Items) != c.items || n != c.groups {
			t.Errorf("%v %+v: %d items in %d groups, want %d in %d", c.arch, c.regime, len(merged.Items), n, c.items, c.groups)
		}
	}
}

// TestItemGroupsBuiltByFirstDie: New, golden responses and coverage build
// nothing of the input layer, neither item groups nor their weight sums
// nor atoms; the first die builds all three, once for the ATE and its
// tolerance clones.
func TestItemGroupsBuiltByFirstDie(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	ate.Golden(0)
	ate.MeasureCoverage(fault.Universe(arch, fault.SWF), g.Options().Values)
	if l := ate.input; l.group != nil || l.sums != nil || l.atom != nil || l.size != nil || l.atoms != nil {
		t.Fatal("New, Golden or MeasureCoverage built the input layer")
	}
	clone, err := ate.CloneWithTolerance(1)
	if err != nil {
		t.Fatal(err)
	}
	clone.RunChip(nil)
	if l := ate.input; l != clone.input || l.group == nil || l.sums == nil || l.atom == nil || l.size == nil || l.atoms == nil {
		t.Fatal("the clone's first die did not build the ATE's input layer")
	}
}

// holdSuite returns ts followed by a held twin of each of its items: the
// same configuration and pattern applied in every timestep, which drives
// the same layer-1 input as its single-shot twin and so shares its group.
func holdSuite(ts *pattern.TestSet) *pattern.TestSet {
	c := *ts
	c.Items = slices.Clone(ts.Items)
	for _, it := range ts.Items {
		it.Hold = true
		it.Label += " held"
		c.Items = append(c.Items, it)
	}
	return &c
}

// oracleObserve is Observe over oracleDie, which shares nothing.
func oracleObserve(a *ATE, mods *snn.Modifiers) []bool {
	run := oracleDie(a, nil)
	fails := make([]bool, len(a.ts.Items))
	for i := range a.ts.Items {
		fails[i] = !run(i, mods).Equal(a.Golden(i))
	}
	return fails
}

// memoHits counts the items among the first run of a whose group's
// layer-1 sum an earlier item of the run has already read.
func memoHits(a *ATE, run int) int {
	l := a.input.get()
	of := l.group
	seen := make([]bool, len(l.sums))
	hits := 0
	for _, g := range of[:run] {
		if seen[g] {
			hits++
		}
		seen[g] = true
	}
	return hits
}

// TestDieMemoMatchesOracle checks every die path that reads a group's
// input sum — the reliable session (RunChip's loop), RunChipSession and
// Observe die for die, and the
// sessions, escape and overkill campaigns (at GOMAXPROCS 1 and 4) — against
// the oracle die, which shares nothing, at σ = 10 % θ. The dies carry NASF
// on input neurons (a forced input, whose row goes on top of the sum: under
// intermittence a die runs some items with it and some without), SWF and
// SASF on boundary 0 (corrections applied after a shared sum), ESF and
// HSF, clusters of four of those (several boundary-0 reads, drawn one
// after another from shared atoms), or nothing. The ATEs are a plain
// merged program, one with a held twin after every item (sharing its
// group), and the plain program quantized to 8 bits.
func TestDieMemoMatchesOracle(t *testing.T) {
	arch := snn.Arch{24, 16, 8, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	values := g.Options().Values
	vary := variation.OfTheta(0.10, g.Options().Params.Theta)
	var faults []fault.Fault
	for i := 0; i < arch[0]; i++ {
		faults = append(faults, fault.NewNeuronFault(fault.NASF, snn.NeuronID{Layer: 0, Index: i}))
	}
	for _, k := range []fault.Kind{fault.SWF, fault.SASF} {
		for i, f := range fault.Universe(arch, k) {
			if f.Synapse.Boundary == 0 && i%8 == 0 {
				faults = append(faults, f)
			}
		}
	}
	faults = append(faults, fault.Universe(arch, fault.ESF)...)
	faults = append(faults, fault.Universe(arch, fault.HSF)...)
	dies := make([]*snn.Modifiers, 24) // good dies first
	for _, f := range faults {
		dies = append(dies, f.Modifiers(values))
	}
	for c := 0; c < 12; c++ { // the last forced inputs, then stuck and always-on synapses
		_, m := ClusterDefect(faults[arch[0]-6:], values, c, 4)
		dies = append(dies, m)
	}
	mods := func(i int) *snn.Modifiers { return dies[i] }

	sch, err := quant.NewScheme(8, quant.PerChannel)
	if err != nil {
		t.Fatal(err)
	}
	held := New(holdSuite(merged), nil)
	for i, n := 0, len(merged.Items); i < n; i++ {
		if of := held.input.get().group; of[i] != of[n+i] {
			t.Fatalf("held item %d and its single-shot twin fall into groups %d and %d", n+i, of[n+i], of[i])
		}
	}
	sessions := []struct {
		prof   unreliable.Profile
		policy RetestPolicy
	}{
		{unreliable.Reliable(), RetestPolicy{}},
		{unreliable.Profile{
			Intermittence: unreliable.Intermittence{P: 0.5},
			Readout:       unreliable.Readout{JitterP: 0.02, DropP: 0.05},
		}, RetestPolicy{MaxRetests: 3, Vote: true}},
	}
	const seed = 11
	for _, c := range []struct {
		name string
		ate  *ATE
	}{{"plain", New(merged, nil)}, {"held-twins", held}, {"quantized-8bit", New(merged, &sch)}} {
		ate := c.ate
		checkGroups(t, ate)
		hits, verdicts := 0, map[Verdict]int{}
		for i, m := range dies {
			s := chipSeed(seed, i)
			got := variedRunChip(t, ate, m, vary, s)
			if want := oracleRunChip(ate, m, vary, stats.NewRNG(s)); got != want {
				t.Fatalf("%s die %d: reliable session %+v, oracle %+v", c.name, i, got, want)
			}
			hits += memoHits(ate, got.ItemsRun)
			verdicts[got]++
			for _, ss := range sessions {
				got := ate.RunChipSession(m, ss.prof, vary, ss.policy, s)
				if want := oracleRunChipSession(ate, m, ss.prof, vary, ss.policy, s); got != want {
					t.Fatalf("%s die %d %+v: session %v, oracle %v", c.name, i, ss.policy, got, want)
				}
			}
			if got, want := ate.Observe(m), oracleObserve(ate, m); !slices.Equal(got, want) {
				t.Fatalf("%s die %d: Observe %v, oracle %v", c.name, i, got, want)
			}
		}
		if hits == 0 || len(verdicts) < 2 {
			t.Fatalf("%s: fixture broken: %d memo hits, verdicts %v", c.name, hits, verdicts)
		}
		t.Logf("%s: %d dies, %d distinct verdicts, %d items read a group sum an earlier item read", c.name, len(dies), len(verdicts), hits)

		wantSessions := make([]SessionStats, len(sessions))
		for k, ss := range sessions {
			wantSessions[k].Chips = len(dies)
			for i, m := range dies {
				wantSessions[k].add(oracleRunChipSession(ate, m, ss.prof, vary, ss.policy, chipSeed(seed, i)))
			}
		}
		rate := func(n int, mods func(i int) *snn.Modifiers, passed bool) float64 {
			hit := 0
			for i := 0; i < n; i++ {
				if oracleRunChip(ate, mods(i), vary, stats.NewRNG(chipSeed(seed, i))).Passed == passed {
					hit++
				}
			}
			return 100 * float64(hit) / float64(n)
		}
		escape := rate(len(faults), func(i int) *snn.Modifiers { return faults[i].Modifiers(values) }, true)
		overkill := rate(len(dies), func(int) *snn.Modifiers { return nil }, false)
		if c.name == "plain" && (overkill == 0 || overkill == 100) {
			t.Fatalf("fixture broken: overkill %g %%; the comparison needs both verdicts", overkill)
		}
		atProcs(t, c.name, func(t *testing.T) {
			for k, ss := range sessions {
				got := ate.MeasureSessions(len(dies), mods, ss.prof, vary, ss.policy, seed)
				if len(got.Errors) != 0 || !sameSessionInts(got, wantSessions[k]) {
					t.Errorf("MeasureSessions %+v: %+v, oracle %+v", ss.policy, got, wantSessions[k])
				}
			}
			if got, errs := ate.MeasureEscape(faults, values, vary, seed); got != escape || len(errs) != 0 {
				t.Errorf("MeasureEscape = %v %% (errors %v), oracle %v %%", got, errs, escape)
			}
			if got := ate.MeasureOverkill(len(dies), vary, seed); got != overkill {
				t.Errorf("MeasureOverkill = %v %%, oracle %v %%", got, overkill)
			}
		})
	}
}

// TestItemGroupsSharedAcrossConcurrentClones runs every die campaign
// concurrently on a fresh ATE and on its tolerance clone, before either
// has grouped its items: both build on one grouping, built once. Run it
// under -race.
func TestItemGroupsSharedAcrossConcurrentClones(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	base := New(merged, nil)
	clone, err := base.CloneWithTolerance(1)
	if err != nil {
		t.Fatal(err)
	}
	values := g.Options().Values
	vary := variation.OfTheta(0.10, g.Options().Params.Theta)
	faults := SampleFaults(arch, fault.Kinds(), 40, 5)
	mods := func(i int) *snn.Modifiers { return faults[i%len(faults)].Modifiers(values) }
	var wg sync.WaitGroup
	groupings := make(chan *int, 8) // the first group entry each campaign's dies read
	for _, a := range []*ATE{base, clone} {
		for _, run := range []func(){
			func() { a.MeasureSessions(16, mods, unreliable.Reliable(), vary, RetestPolicy{}, 3) },
			func() { a.MeasureEscape(faults, values, vary, 4) },
			func() { a.MeasureOverkill(16, vary, 5) },
			func() { a.Observe(mods(0)) },
		} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
				groupings <- &a.newDie().in.group[0]
			}()
		}
	}
	wg.Wait()
	close(groupings)
	first := &base.newDie().in.group[0]
	for p := range groupings {
		if p != first {
			t.Fatal("the campaigns read two groupings of one test program")
		}
	}
}
