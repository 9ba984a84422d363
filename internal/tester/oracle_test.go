package tester

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/quant"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
	"neurotest/internal/unreliable"
	"neurotest/internal/variation"
)

// oracleSampleFaults is a materialising SampleFaults: it shuffles a copy
// of each partly sampled kind's built universe (from universes) by a dense
// partial Fisher–Yates, position i swapped with i + Intn(n−i) for the
// first k positions, and keeps those k faults. SampleFaults must pick the
// same faults in the same order from the same draws.
func oracleSampleFaults(universes map[fault.Kind][]fault.Fault, kinds []fault.Kind, max int, seed uint64) []fault.Fault {
	sizes := make([]int, len(kinds))
	total := 0
	for i, k := range kinds {
		sizes[i] = len(universes[k])
		total += sizes[i]
	}
	var out []fault.Fault
	if max <= 0 || max >= total {
		for _, k := range kinds {
			out = append(out, universes[k]...)
		}
		return out
	}
	rng := stats.NewRNG(seed)
	want := sampleAllocation(sizes, max, total)
	for i, k := range kinds {
		if want[i] == 0 {
			continue
		}
		u := universes[k]
		if want[i] >= len(u) {
			out = append(out, u...)
			continue
		}
		u = slices.Clone(u)
		for j := 0; j < want[i]; j++ {
			r := j + rng.Intn(len(u)-j)
			u[j], u[r] = u[r], u[j]
		}
		out = append(out, u[:want[i]]...)
	}
	return out
}

func TestSampleFaultsMatchesOracle(t *testing.T) {
	archs := []snn.Arch{{6, 5, 4}, {10, 8, 6, 3}, {576, 256, 32, 10}, {576, 256, 64, 32, 10}}
	kindSets := [][]fault.Kind{fault.Kinds(), {fault.SASF, fault.SWF}, fault.NeuronKinds(), {fault.SWF}}
	seeds := []uint64{1, 7, 41, 90210}
	for _, arch := range archs {
		t.Run(arch.String(), func(t *testing.T) {
			t.Parallel()
			universes := map[fault.Kind][]fault.Fault{}
			for _, k := range fault.Kinds() {
				universes[k] = fault.Universe(arch, k)
			}
			for _, kinds := range kindSets {
				total := 0
				for _, k := range kinds {
					total += len(universes[k])
				}
				for _, max := range []int{0, 1, 3, 6, 20, 256, 1024, total - 1, total, total + 10} {
					for si, seed := range seeds {
						if si > 0 && (max <= 0 || max >= total) {
							break // the whole universes: no draws, one seed suffices
						}
						got := SampleFaults(arch, kinds, max, seed)
						want := oracleSampleFaults(universes, kinds, max, seed)
						if !slices.Equal(got, want) {
							t.Fatalf("%v max=%d seed=%d: %d faults differ from the oracle's %d",
								kinds, max, seed, len(got), len(want))
						}
						if n := SampleSize(arch, kinds, max); n != len(got) {
							t.Fatalf("%v max=%d: SampleSize %d, sample holds %d", kinds, max, n, len(got))
						}
					}
				}
			}
		})
	}
}

// TestSampleFaultsAllocatesPerSample: a bounded sample costs memory in
// proportion to the sample, not to the universes it is drawn from. The
// 256-fault all-kind sample of the paper's 5-layer model draws from two
// 166,208-fault synapse universes; a whole permutation of each allocates
// about 2.7 MB.
func TestSampleFaultsAllocatesPerSample(t *testing.T) {
	arch := snn.Arch{576, 256, 64, 32, 10}
	const limit = 256 << 10
	for _, seed := range []uint64{1, 7, 41} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sample := SampleFaults(arch, fault.Kinds(), 256, seed)
		runtime.ReadMemStats(&after)
		if len(sample) != 256 {
			t.Fatalf("seed %d: %d faults, want 256", seed, len(sample))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
			t.Errorf("seed %d: a 256-fault sample allocated %d bytes, want under %d", seed, got, limit)
		} else {
			t.Logf("seed %d: a 256-fault sample allocated %d bytes", seed, got)
		}
	}
}

// oracleAtoms partitions a's input neurons into atoms, written out: two
// neurons share an atom when every item drives both or neither. Atoms are
// numbered in order of their first neuron.
func oracleAtoms(a *ATE) (atomOf []int, members [][]int) {
	sameItems := func(i, k int) bool {
		for _, it := range a.ts.Items {
			if it.Pattern[i] != it.Pattern[k] {
				return false
			}
		}
		return true
	}
	atomOf = make([]int, a.ts.Arch[0])
	for i := range atomOf {
		atomOf[i] = -1
		for k := 0; k < i; k++ {
			if sameItems(i, k) {
				atomOf[i] = atomOf[k]
				break
			}
		}
		if atomOf[i] < 0 {
			atomOf[i] = len(members)
			members = append(members, nil)
		}
		members[atomOf[i]] = append(members[atomOf[i]], i)
	}
	return atomOf, members
}

// oracleChip is a die's variation, drawn as a die draws it but written
// out: atom by atom a row of sums at σ√|A|, the deeper boundaries' tensor,
// then the boundary-0 synapses mods reads one at a time, visited in
// SynapseID order, each drawn given what its atom sum has left.
type oracleChip struct {
	atoms [][]float64 // per atom, per layer-1 neuron
	deep  *variation.ErrorTensor
	rows  [][]float64 // per input neuron; nil when mods read none
}

// oracleDraw draws a chip's variation from rng as oracleChip; a zero model
// draws nothing and returns nil.
func oracleDraw(a *ATE, vary variation.Model, rng *stats.RNG, mods *snn.Modifiers) *oracleChip {
	if vary.Zero() {
		return nil
	}
	arch := a.ts.Arch
	n := arch[1]
	atomOf, members := oracleAtoms(a)
	c := &oracleChip{}
	left := make([][]float64, len(members))
	count := make([][]int, len(members))
	for k, m := range members {
		row := make([]float64, n)
		rng.FillNorm(row, vary.Sigma*math.Sqrt(float64(len(m))))
		c.atoms = append(c.atoms, row)
		left[k] = slices.Clone(row)
		count[k] = make([]int, n)
		for j := range count[k] {
			count[k][j] = len(m)
		}
	}
	c.deep = vary.SampleError(arch[1:], rng)
	if mods == nil {
		return c
	}
	for i := 0; i < arch[0]; i++ {
		_, forced := mods.ForceSpike[snn.NeuronID{Layer: 0, Index: i}]
		for j := 0; j < n; j++ {
			id := snn.SynapseID{Boundary: 0, Pre: i, Post: j}
			_, stuck := mods.StuckWeight[id]
			_, on := mods.AlwaysOnSynapse[id]
			if !forced && !stuck && !on {
				continue
			}
			if c.rows == nil {
				c.rows = make([][]float64, arch[0])
			}
			if c.rows[i] == nil {
				c.rows[i] = make([]float64, n)
			}
			s, m := left[atomOf[i]][j], count[atomOf[i]][j]
			e := s
			if m > 1 {
				e = s/float64(m) + vary.Sigma*math.Sqrt(1-1/float64(m))*rng.NormFloat64()
			}
			left[atomOf[i]][j], count[atomOf[i]][j] = s-e, m-1
			c.rows[i][j] = e
		}
	}
	return c
}

// oracleDie runs items on a die carrying chip c (nil: no variation)
// without anything a die shares or keeps: every item's layer-1 sum is
// added up afresh, row by row over its pattern's programmed weights in
// neuron order, then its atoms' sums in atom order, and the deeper
// boundaries are read from a fresh clone of the configuration with c's
// deep errors written in.
func oracleDie(a *ATE, c *oracleChip) func(i int, mods *snn.Modifiers) snn.Result {
	_, members := oracleAtoms(a)
	n := a.ts.Arch[1]
	cur := -1
	var sim *snn.Simulator
	return func(i int, mods *snn.Modifiers) snn.Result {
		it := a.ts.Items[i]
		if it.ConfigIndex != cur {
			net := a.nets[it.ConfigIndex]
			if c != nil {
				net = net.Clone()
				for b := 1; b < len(net.W); b++ {
					for k := range net.W[b] {
						net.W[b][k] += c.deep.E[b-1][k]
					}
				}
			}
			sim = snn.NewSimulator(net)
			cur = it.ConfigIndex
		}
		w := a.nets[it.ConfigIndex].W[0]
		in := &snn.Input{Sum: make([]float64, n)}
		for k, on := range it.Pattern {
			if on {
				snn.AddInto(in.Sum, w[k*n:(k+1)*n])
			}
		}
		if c != nil {
			for k, m := range members {
				if it.Pattern[m[0]] {
					snn.AddInto(in.Sum, c.atoms[k])
				}
			}
			in.Off = c.rows
		}
		return sim.RunInput(in, it.Pattern, it.Timesteps, it.Mode(), mods)
	}
}

// perWeightDie programs every configuration into a fresh errs.ApplyTo
// clone and runs items on it: the die the tester ran before it drew its
// variation per input atom, one error per synapse.
func perWeightDie(a *ATE, errs *variation.ErrorTensor) func(i int, mods *snn.Modifiers) snn.Result {
	cur := -1
	var sim *snn.Simulator
	return func(i int, mods *snn.Modifiers) snn.Result {
		it := a.ts.Items[i]
		if it.ConfigIndex != cur {
			sim = snn.NewSimulator(errs.ApplyTo(a.nets[it.ConfigIndex]))
			cur = it.ConfigIndex
		}
		return sim.Run(it.Pattern, it.Timesteps, it.Mode(), mods)
	}
}

// oracleRunChip is RunChip over oracleDie, on a die whose variation is
// drawn from rng.
func oracleRunChip(a *ATE, mods *snn.Modifiers, vary variation.Model, rng *stats.RNG) Verdict {
	run := oracleDie(a, oracleDraw(a, vary, rng, mods))
	v := Verdict{Passed: true, FailedItem: -1}
	for i := range a.ts.Items {
		res := run(i, mods)
		v.ItemsRun++
		if !a.matches(res, a.Golden(i)) {
			v.Passed = false
			v.FailedItem = i
			return v
		}
	}
	return v
}

// variedRunChip is RunChip on a die whose variation is drawn from
// stats.NewRNG(s): the reliable, zero-policy RunChipSession at seed
// s^varySalt, whose die draws from stats.NewRNG(s). The escape and
// overkill campaigns test chip i so, at s = chipSeed(seed, i).
func variedRunChip(t *testing.T, a *ATE, mods *snn.Modifiers, vary variation.Model, s uint64) Verdict {
	t.Helper()
	rep := a.RunChipSession(mods, unreliable.Reliable(), vary, RetestPolicy{}, s^varySalt)
	if rep.Outcome == Quarantine || rep.Retests != 0 || rep.DroppedReads != 0 {
		t.Fatalf("reliable session did more than a pass/fail run: %v", rep)
	}
	return Verdict{Passed: rep.Outcome == Pass, FailedItem: rep.FailedItem, ItemsRun: rep.ItemsRun}
}

// oracleRunChipSession is RunChipSession over oracleDie, without the
// session metrics.
func oracleRunChipSession(a *ATE, mods *snn.Modifiers, prof unreliable.Profile, vary variation.Model, policy RetestPolicy, seed uint64) SessionReport {
	sess := prof.NewSession(seed)
	run := oracleDie(a, oracleDraw(a, vary, stats.NewRNG(seed^varySalt), mods))
	rep := SessionReport{Outcome: Pass, FailedItem: -1, BaselineItems: len(a.ts.Items)}
	budget := policy.MaxRetests
	apply := func(i int, first bool) (snn.Result, error) {
		m := mods
		if !sess.FaultActive() {
			m = nil
		}
		res := run(i, m)
		rep.ItemsRun++
		if !first {
			rep.Retests++
		}
		return sess.Observe(res)
	}
	read := func(i int, first bool) (snn.Result, bool) {
		cost := 1
		for {
			res, err := apply(i, first)
			if err == nil {
				return res, true
			}
			first = false
			rep.DroppedReads++
			if budget < cost {
				return snn.Result{}, false
			}
			budget -= cost
			rep.BudgetSpent += cost
			if cost < MaxDropCost {
				cost *= 2
			}
		}
	}
	end := func(o Outcome, i int) SessionReport {
		rep.Outcome = o
		rep.FailedItem = i
		return rep
	}
	for i := range a.ts.Items {
		res, ok := read(i, true)
		if !ok {
			return end(Quarantine, i)
		}
		if a.matches(res, a.Golden(i)) {
			continue
		}
		if policy.MaxRetests == 0 {
			return end(Fail, i)
		}
		needPass, needFail := 1, 1
		nPass, nFail := 0, 0
		if policy.Vote {
			needPass, needFail = 2, 2
			nFail = 1
		}
		for nPass < needPass && nFail < needFail {
			if budget < 1 {
				return end(Quarantine, i)
			}
			budget--
			rep.BudgetSpent++
			res, ok := read(i, false)
			if !ok {
				return end(Quarantine, i)
			}
			if a.matches(res, a.Golden(i)) {
				nPass++
			} else {
				nFail++
			}
		}
		if nFail >= needFail {
			return end(Fail, i)
		}
	}
	return rep
}

// TestDieProgrammingMatchesOracle compares pass/fail verdicts (RunChip
// without variation, the reliable zero-policy session with it) and
// RunChipSession reports die for die with the oracle die, which shares
// nothing: good dies and faulty dies of all five kinds (SWF and SASF
// corrections read the programmed weight), with and without variation,
// under a voting retest policy over an intermittent, noisy chip. A good
// die passes at σ = 30 % θ about once in 80, so the population holds 300
// good dies for that σ to show both verdicts.
func TestDieProgrammingMatchesOracle(t *testing.T) {
	arch := snn.Arch{10, 8, 6, 3}
	g, merged := smallSuite(t, arch, core.NoVariation())
	theta := g.Options().Params.Theta
	values := g.Options().Values
	ate := New(merged, nil)
	dies := make([]*snn.Modifiers, 300) // good dies first
	for _, kind := range fault.Kinds() {
		for _, f := range fault.Universe(arch, kind) {
			dies = append(dies, f.Modifiers(values))
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
	for _, frac := range []float64{0, 0.10, 0.30} {
		vary := variation.OfTheta(frac, theta)
		outcomes := map[Outcome]int{}
		for i, mods := range dies {
			seed := chipSeed(uint64(frac*1000), i)
			got := variedRunChip(t, ate, mods, vary, seed)
			want := oracleRunChip(ate, mods, vary, stats.NewRNG(seed))
			if got != want {
				t.Fatalf("σ=%g θ die %d: reliable session %+v, oracle %+v", frac, i, got, want)
			}
			if frac == 0 {
				if got := ate.RunChip(mods); got != want {
					t.Fatalf("die %d: RunChip %+v, oracle %+v", i, got, want)
				}
			}
			for _, s := range sessions {
				got := ate.RunChipSession(mods, s.prof, vary, s.policy, seed)
				want := oracleRunChipSession(ate, mods, s.prof, vary, s.policy, seed)
				if got != want {
					t.Fatalf("σ=%g θ die %d %+v: session %v, oracle %v", frac, i, s.policy, got, want)
				}
				outcomes[got.Outcome]++
			}
		}
		if outcomes[Pass] == 0 || outcomes[Fail] == 0 {
			t.Errorf("σ=%g θ: outcomes %v never both pass and fail", frac, outcomes)
		}
	}
}

// weightBits snapshots every weight of nets bit for bit.
func weightBits(nets []*snn.Network) [][]uint64 {
	var out [][]uint64
	for _, n := range nets {
		for _, row := range n.W {
			bits := make([]uint64, len(row))
			for i, w := range row {
				bits[i] = math.Float64bits(w)
			}
			out = append(out, bits)
		}
	}
	return out
}

// TestSharedConfigsUntouched runs every campaign kind concurrently on one
// ATE and on its tolerance clone — the neurotestd pattern of parallel jobs
// over one cached artifact — and checks that no die programmed a shared
// configuration in place: the test program's configurations and the ATE's
// programmed copies keep every weight bit. Run it under -race.
func TestSharedConfigsUntouched(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	sch, err := quant.NewScheme(8, quant.PerChannel)
	if err != nil {
		t.Fatal(err)
	}
	base := New(merged, &sch)
	clone, err := base.CloneWithTolerance(1)
	if err != nil {
		t.Fatal(err)
	}
	configs, nets := weightBits(merged.Configs), weightBits(base.nets)
	values := g.Options().Values
	vary := variation.OfTheta(0.10, g.Options().Params.Theta)
	faults := SampleFaults(arch, fault.Kinds(), 40, 5)
	mods := func(i int) *snn.Modifiers { return faults[i%len(faults)].Modifiers(values) }
	prof := unreliable.Profile{Intermittence: unreliable.Intermittence{P: 0.5}}

	var wg sync.WaitGroup
	errc := make(chan error, 8) // one slot per campaign goroutine below
	run := func(name string, fn func() []error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs := fn(); len(errs) > 0 {
				errc <- fmt.Errorf("%s: %v", name, errs[0])
			}
		}()
	}
	for _, a := range []*ATE{base, clone} {
		run("sessions", func() []error {
			return a.MeasureSessions(16, mods, prof, vary, RetestPolicy{MaxRetests: 2}, 3).Errors
		})
		run("escape", func() []error { _, errs := a.MeasureEscape(faults, values, vary, 4); return errs })
		run("overkill", func() []error { a.MeasureOverkill(16, vary, 5); return nil })
		run("coverage", func() []error { return a.MeasureCoverage(faults, values).Errors })
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if !slices.EqualFunc(weightBits(merged.Configs), configs, slices.Equal[[]uint64]) {
		t.Errorf("a campaign wrote into the test program's configurations")
	}
	if !slices.EqualFunc(weightBits(base.nets), nets, slices.Equal[[]uint64]) {
		t.Errorf("a campaign wrote into the ATE's programmed configurations")
	}
}
