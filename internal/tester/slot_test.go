package tester

import (
	"fmt"
	"runtime"
	"testing"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
	"neurotest/internal/unreliable"
	"neurotest/internal/variation"
)

// atProcs runs fn as subtests name/procs-1 and name/procs-4 at those
// GOMAXPROCS, so the pooled campaigns run on one slot and on several, and
// restores the setting.
func atProcs(t *testing.T, name string, fn func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("%s/procs-%d", name, procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

// slotSuite is a small program without variation margins, so σ = 10 % θ
// fails some good dies and lets some faulty ones pass: the per-slot
// tensors must reproduce a mix of verdicts, not one answer.
func slotSuite(t *testing.T) (*ATE, []fault.Fault, fault.Values, variation.Model) {
	t.Helper()
	arch := snn.Arch{8, 6, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	var faults []fault.Fault
	for _, k := range fault.Kinds() {
		faults = append(faults, fault.Universe(arch, k)...)
	}
	opt := g.Options()
	return New(merged, nil), faults, opt.Values, variation.OfTheta(0.10, opt.Params.Theta)
}

// TestMeasureSessionsMatchesSessionLoop: the sessions campaign, whose pool
// slots each sample their dies into one tensor, tallies exactly what a loop
// of public RunChipSession calls — one fresh tensor per die — tallies, for
// good and faulty dies under weight variation, retests and flaky readout.
func TestMeasureSessionsMatchesSessionLoop(t *testing.T) {
	ate, faults, values, vary := slotSuite(t)
	prof := unreliable.Profile{Intermittence: unreliable.Intermittence{P: 0.7}, Readout: unreliable.Readout{JitterP: 0.02, DropP: 0.02}}
	policy := RetestPolicy{MaxRetests: 2, Vote: true}
	const n = 48
	for _, c := range []struct {
		name string
		mods func(i int) *snn.Modifiers
	}{
		{"good", nil},
		{"faulty", func(i int) *snn.Modifiers { return faults[(7*i)%len(faults)].Modifiers(values) }},
	} {
		want := SessionStats{Chips: n}
		for i := 0; i < n; i++ {
			var m *snn.Modifiers
			if c.mods != nil {
				m = c.mods(i)
			}
			want.add(ate.RunChipSession(m, prof, vary, policy, chipSeed(5, i)))
		}
		if want.Pass == 0 || want.Pass == n {
			t.Fatalf("%s: fixture broken, %d of %d dies pass; the comparison needs both verdicts", c.name, want.Pass, n)
		}
		atProcs(t, c.name, func(t *testing.T) {
			got := ate.MeasureSessions(n, c.mods, prof, vary, policy, 5)
			if len(got.Errors) != 0 || !sameSessionInts(got, want) || got.Chips != want.Chips {
				t.Errorf("%s: MeasureSessions %+v, RunChipSession loop %+v", c.name, got, want)
			}
		})
	}
}

// TestChipCampaignsMatchRunChipLoop: the escape and overkill campaigns,
// whose pool slots each sample their dies into one tensor, return exactly
// the rates of a loop of public RunChip calls over the same per-chip
// seeds.
func TestChipCampaignsMatchRunChipLoop(t *testing.T) {
	ate, faults, values, vary := slotSuite(t)
	vary.Sigma *= 3 // at 10 % θ every faulty die of this program fails
	const seed, nGood = 9, 60
	faults = faults[:min(len(faults), 80)]
	loop := func(n int, mods func(i int) *snn.Modifiers, passed bool) float64 {
		hit := 0
		for i := 0; i < n; i++ {
			if ate.RunChip(mods(i), vary, stats.NewRNG(chipSeed(seed, i))).Passed == passed {
				hit++
			}
		}
		return 100 * float64(hit) / float64(n)
	}
	escape := loop(len(faults), func(i int) *snn.Modifiers { return faults[i].Modifiers(values) }, true)
	overkill := loop(nGood, func(int) *snn.Modifiers { return nil }, false)
	for _, r := range []float64{escape, overkill} {
		if r == 0 || r == 100 {
			t.Fatalf("fixture broken: escape %g %%, overkill %g %%; the comparison needs both verdicts", escape, overkill)
		}
	}
	atProcs(t, "chips", func(t *testing.T) {
		if got, errs := ate.MeasureEscape(faults, values, vary, seed); got != escape || len(errs) != 0 {
			t.Errorf("MeasureEscape = %v %% (errors %v), RunChip loop %v %%", got, errs, escape)
		}
		if got := ate.MeasureOverkill(nGood, vary, seed); got != overkill {
			t.Errorf("MeasureOverkill = %v %%, RunChip loop %v %%", got, overkill)
		}
	})
}

// TestMeasureSessionsAllocatesOneTensorPerSlot: at GOMAXPROCS 1 a sessions
// campaign over 16 dies of the paper's 576-256-32-10 model samples every
// die into its one pool slot's tensor, so it allocates less than two
// tensors' worth (a tensor is 155,968 errors, 1.25 MB), where a tensor per
// die would allocate sixteen.
func TestMeasureSessionsAllocatesOneTensorPerSlot(t *testing.T) {
	arch := snn.Arch{576, 256, 32, 10}
	g, merged := smallSuite(t, arch, core.NegligibleVariation())
	ate := New(merged, nil)
	vary := variation.OfTheta(0.10, g.Options().Params.Theta)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func() SessionStats {
		return ate.MeasureSessions(16, nil, unreliable.Reliable(), vary, RetestPolicy{}, 3)
	}
	run() // builds the goldens and registers the instruments
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := run()
	runtime.ReadMemStats(&after)
	if s.Chips != 16 || len(s.Errors) != 0 {
		t.Fatalf("campaign: %+v", s)
	}
	tensor := uint64(8 * (arch[0]*arch[1] + arch[1]*arch[2] + arch[2]*arch[3]))
	got := after.TotalAlloc - before.TotalAlloc
	if got >= 2*tensor {
		t.Errorf("16 dies allocated %d bytes, want under two tensors' worth (%d bytes)", got, 2*tensor)
	}
	t.Logf("16 dies allocated %d bytes; one tensor is %d", got, tensor)
}
