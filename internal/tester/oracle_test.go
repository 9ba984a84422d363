package tester

import (
	"fmt"
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

// oracleSampleFaults is the materialising SampleFaults that predates
// fault.UniverseAt: it indexes each kind's built universe (from universes)
// with the same permutation draws. SampleFaults must pick the same faults
// in the same order.
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
		perm := rng.Perm(len(u))
		for _, idx := range perm[:want[i]] {
			out = append(out, u[idx])
		}
	}
	return out
}

func TestSampleFaultsMatchesOracle(t *testing.T) {
	archs := []snn.Arch{{6, 5, 4}, {10, 8, 6, 3}, {576, 256, 32, 10}, {576, 256, 64, 32, 10}}
	kindSets := [][]fault.Kind{fault.Kinds(), fault.SynapseKinds(), fault.NeuronKinds(), {fault.SWF}}
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
					}
				}
			}
		})
	}
}

// oracleDie programs every configuration into a fresh errs.ApplyTo clone —
// the programming the tester used before dies owned a scratch network.
func oracleDie(a *ATE, errs *variation.ErrorTensor) func(ci int) *snn.Simulator {
	cur := -1
	var sim *snn.Simulator
	return func(ci int) *snn.Simulator {
		if ci != cur {
			sim = snn.NewSimulator(errs.ApplyTo(a.nets[ci]))
			cur = ci
		}
		return sim
	}
}

// oracleRunChip is RunChip over oracleDie.
func oracleRunChip(a *ATE, mods *snn.Modifiers, vary variation.Model, rng *stats.RNG) Verdict {
	program := oracleDie(a, vary.SampleError(a.ts.Arch, rng))
	v := Verdict{Passed: true, FailedItem: -1}
	for i, it := range a.ts.Items {
		res := program(it.ConfigIndex).Run(it.Pattern, it.Timesteps, it.Mode(), mods)
		v.ItemsRun++
		if !a.matches(res, a.goldenResult(i)) {
			v.Passed = false
			v.FailedItem = i
			return v
		}
	}
	return v
}

// oracleRunChipSession is RunChipSession over oracleDie, without the
// session metrics.
func oracleRunChipSession(a *ATE, mods *snn.Modifiers, prof unreliable.Profile, vary variation.Model, policy RetestPolicy, seed uint64) SessionReport {
	sess := prof.NewSession(seed)
	var errs *variation.ErrorTensor
	if !vary.Zero() {
		errs = vary.SampleError(a.ts.Arch, stats.NewRNG(seed^varySalt))
	}
	program := oracleDie(a, errs)
	rep := SessionReport{Outcome: Pass, FailedItem: -1, BaselineItems: len(a.ts.Items)}
	budget := policy.MaxRetests
	apply := func(it pattern.Item, first bool) (snn.Result, error) {
		sim := program(it.ConfigIndex)
		m := mods
		if !sess.FaultActive() {
			m = nil
		}
		res := sim.Run(it.Pattern, it.Timesteps, it.Mode(), m)
		rep.ItemsRun++
		if !first {
			rep.Retests++
		}
		return sess.Observe(res)
	}
	read := func(it pattern.Item, first bool) (snn.Result, bool) {
		cost := 1
		for {
			res, err := apply(it, first)
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
	for i, it := range a.ts.Items {
		res, ok := read(it, true)
		if !ok {
			return end(Quarantine, i)
		}
		if a.matches(res, a.goldenResult(i)) {
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
			res, ok := read(it, false)
			if !ok {
				return end(Quarantine, i)
			}
			if a.matches(res, a.goldenResult(i)) {
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

// TestDieProgrammingMatchesOracle compares RunChip verdicts and
// RunChipSession reports die for die with the fresh-clone oracle: good
// dies and faulty dies of all five kinds (SWF and SASF corrections read the
// programmed weight), with and without variation, under a voting retest
// policy over an intermittent, noisy chip.
func TestDieProgrammingMatchesOracle(t *testing.T) {
	arch := snn.Arch{10, 8, 6, 3}
	g, merged := smallSuite(t, arch, core.NoVariation())
	theta := g.Options().Params.Theta
	values := g.Options().Values
	ate := New(merged, nil)
	dies := []*snn.Modifiers{nil, nil, nil}
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
			got := ate.RunChip(mods, vary, stats.NewRNG(seed))
			want := oracleRunChip(ate, mods, vary, stats.NewRNG(seed))
			if got != want {
				t.Fatalf("σ=%g θ die %d: RunChip %+v, oracle %+v", frac, i, got, want)
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
// transformed copies keep every weight bit. Run it under -race.
func TestSharedConfigsUntouched(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	sch, err := quant.NewScheme(8, quant.PerChannel)
	if err != nil {
		t.Fatal(err)
	}
	tf := func(n *snn.Network) *snn.Network { c, _ := sch.QuantizedClone(n); return c }
	base := New(merged, tf)
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
		run("escape", func() []error { return a.EscapeTally(faults, values, vary, 4).Errors })
		run("overkill", func() []error { return a.OverkillTally(16, vary, 5).Errors })
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
		t.Errorf("a campaign wrote into the ATE's transformed configurations")
	}
}
