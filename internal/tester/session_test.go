package tester

import (
	"context"
	"errors"
	"strings"
	"testing"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/snn"
	"neurotest/internal/unreliable"
	"neurotest/internal/variation"
)

// TestReliableSessionIsRunChip is the acceptance criterion of the session
// layer: RunChip, and the session with intermittence p = 1 and retest
// budget 0, must reproduce the memo-free oracle's verdicts exactly, item
// for item, on the good die and every fault of the universe.
func TestReliableSessionIsRunChip(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	prof := unreliable.Profile{Intermittence: unreliable.Intermittence{P: 1.0}}
	policy := RetestPolicy{MaxRetests: 0}

	check := func(name string, mods *snn.Modifiers) {
		t.Helper()
		want := oracleRunChip(ate, mods, variation.None(), nil)
		if got := ate.RunChip(mods); got != want {
			t.Errorf("%s: RunChip %+v, oracle %+v", name, got, want)
		}
		got := ate.RunChipSession(mods, prof, variation.None(), policy, 7)
		wantOutcome := Pass
		if !want.Passed {
			wantOutcome = Fail
		}
		if got.Outcome != wantOutcome || got.FailedItem != want.FailedItem || got.ItemsRun != want.ItemsRun {
			t.Errorf("%s: session %+v, oracle %+v", name, got, want)
		}
		if got.Retests != 0 || got.DroppedReads != 0 {
			t.Errorf("%s: reliable session did extra work: %+v", name, got)
		}
	}

	check("good chip", nil)
	for _, kind := range fault.Kinds() {
		for _, f := range fault.Universe(arch, kind) {
			check(f.String(), f.Modifiers(g.Options().Values))
		}
	}
}

func TestIntermittentFaultEscapesWithoutRetests(t *testing.T) {
	// A rarely-active fault passes the (short) program on many sessions —
	// the escape mechanism retest policies exist to fight. With p = 0 the
	// die behaves perfectly and must always pass.
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	f := fault.NewNeuronFault(fault.NASF, snn.NeuronID{Layer: 1, Index: 0})
	mods := f.Modifiers(g.Options().Values)

	never := unreliable.Profile{Intermittence: unreliable.Intermittence{P: 0}}
	rep := ate.RunChipSession(mods, never, variation.None(), RetestPolicy{}, 1)
	if rep.Outcome != Pass {
		t.Fatalf("inactive fault: %v", rep)
	}

	rare := unreliable.Profile{Intermittence: unreliable.Intermittence{P: 0.05}}
	escapes := 0
	for chip := 0; chip < 50; chip++ {
		if ate.RunChipSession(mods, rare, variation.None(), RetestPolicy{}, chipSeed(3, chip)).Outcome == Pass {
			escapes++
		}
	}
	if escapes == 0 {
		t.Errorf("p=0.05 fault never escaped a %d-item program over 50 chips", len(merged.Items))
	}
}

func TestRetestBudgetReducesNoiseOverkill(t *testing.T) {
	// A good die behind a jittery readout fails items by noise alone;
	// retest-on-fail with voting must recover most of that overkill.
	arch := snn.Arch{6, 5, 4}
	_, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	prof := unreliable.Profile{
		Intermittence: unreliable.Always(),
		Readout:       unreliable.Readout{JitterP: 0.05},
	}
	n := 80
	strict := ate.MeasureSessions(n, nil, prof, variation.None(), RetestPolicy{}, 5)
	lenient := ate.MeasureSessions(n, nil, prof, variation.None(), RetestPolicy{MaxRetests: 5, Vote: true}, 5)
	if strict.FailRate() == 0 {
		t.Fatalf("jittery readout produced no overkill: %+v", strict)
	}
	if lenient.PassRate() <= strict.PassRate() {
		t.Errorf("retest policy did not recover overkill: strict pass %.1f%%, lenient pass %.1f%%",
			strict.PassRate(), lenient.PassRate())
	}
	if lenient.Amplification() <= 0 {
		t.Errorf("retests ran but amplification is %g", lenient.Amplification())
	}
	if strict.Amplification() != 0 {
		t.Errorf("zero-budget policy has amplification %g", strict.Amplification())
	}
}

func TestDroppedReadoutQuarantinesWithoutBudget(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	_, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	dead := unreliable.Profile{
		Intermittence: unreliable.Always(),
		Readout:       unreliable.Readout{DropP: 1},
	}
	rep := ate.RunChipSession(nil, dead, variation.None(), RetestPolicy{}, 9)
	if rep.Outcome != Quarantine || rep.FailedItem != 0 {
		t.Errorf("dead readout, no budget: %v", rep)
	}
	// With budget the retries are charged 1, 2, 4, … until the budget
	// cannot cover the next one; a permanently dead channel must still
	// quarantine, deterministically, without spinning forever.
	rep = ate.RunChipSession(nil, dead, variation.None(), RetestPolicy{MaxRetests: 5}, 9)
	if rep.Outcome != Quarantine {
		t.Errorf("dead readout with budget: %v", rep)
	}
	if rep.BudgetSpent != 3 { // charges 1+2, then 4 > remaining 2
		t.Errorf("backoff accounting spent %d, want 3", rep.BudgetSpent)
	}
	if rep.DroppedReads == 0 {
		t.Errorf("no drops recorded: %v", rep)
	}
}

func TestFlakyReadoutRecoversWithBudget(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	_, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	flaky := unreliable.Profile{
		Intermittence: unreliable.Always(),
		Readout:       unreliable.Readout{DropP: 0.3},
	}
	rep := ate.RunChipSession(nil, flaky, variation.None(), RetestPolicy{MaxRetests: 50}, 4)
	if rep.Outcome != Pass {
		t.Fatalf("good chip behind flaky readout: %v", rep)
	}
	if rep.DroppedReads == 0 || rep.BudgetSpent == 0 || rep.Retests == 0 {
		t.Errorf("drop accounting empty: %+v", rep)
	}
	if rep.ItemsRun != rep.BaselineItems+rep.Retests {
		t.Errorf("ItemsRun %d != baseline %d + retests %d", rep.ItemsRun, rep.BaselineItems, rep.Retests)
	}
}

func TestVoteConfirmsIntermittentFault(t *testing.T) {
	// An always-active fault under voting: the initial fail plus one
	// failing retest reach two fail votes — detected, one retest charged.
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	f := fault.NewNeuronFault(fault.NASF, snn.NeuronID{Layer: 1, Index: 0})
	rep := ate.RunChipSession(f.Modifiers(g.Options().Values), unreliable.Reliable(),
		variation.None(), RetestPolicy{MaxRetests: 4, Vote: true}, 11)
	if rep.Outcome != Fail || rep.FailedItem != 0 {
		t.Fatalf("voting verdict: %v", rep)
	}
	if rep.Retests != 1 || rep.BudgetSpent != 1 {
		t.Errorf("vote accounting: %+v", rep)
	}
	// Without Vote, the single passing retest of a now-dormant fault would
	// clear the item; a permanently active fault still fails.
	rep = ate.RunChipSession(f.Modifiers(g.Options().Values), unreliable.Reliable(),
		variation.None(), RetestPolicy{MaxRetests: 4}, 11)
	if rep.Outcome != Fail || rep.Retests != 1 {
		t.Errorf("single-retest verdict: %v", rep)
	}
}

func TestSessionDeterministicAcrossRuns(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	f := fault.NewNeuronFault(fault.HSF, snn.NeuronID{Layer: 2, Index: 1})
	prof := unreliable.Profile{
		Intermittence: unreliable.Intermittence{P: 0.4, Burst: true, Persist: 0.7},
		Readout:       unreliable.Readout{JitterP: 0.1, DropP: 0.05},
	}
	policy := RetestPolicy{MaxRetests: 6, Vote: true}
	a := ate.RunChipSession(f.Modifiers(g.Options().Values), prof, variation.OfTheta(0.05, 0.5), policy, 21)
	b := ate.RunChipSession(f.Modifiers(g.Options().Values), prof, variation.OfTheta(0.05, 0.5), policy, 21)
	if a != b {
		t.Errorf("session not reproducible: %+v vs %+v", a, b)
	}
}

func TestMeasureSessionsTalliesAndDeterminism(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	universe := fault.Universe(arch, fault.NASF)
	prof := unreliable.Profile{Intermittence: unreliable.Intermittence{P: 0.3}}
	policy := RetestPolicy{MaxRetests: 3, Vote: true}
	mods := func(i int) *snn.Modifiers {
		return universe[i%len(universe)].Modifiers(g.Options().Values)
	}
	n := 60
	s1 := ate.MeasureSessions(n, mods, prof, variation.None(), policy, 13)
	s2 := ate.MeasureSessions(n, mods, prof, variation.None(), policy, 13)
	if s1.Pass != s2.Pass || s1.Fail != s2.Fail || s1.Quarantine != s2.Quarantine ||
		s1.Retests != s2.Retests || s1.ItemsRun != s2.ItemsRun {
		t.Errorf("session campaign not reproducible: %+v vs %+v", s1, s2)
	}
	if s1.Pass+s1.Fail+s1.Quarantine != n {
		t.Errorf("outcome tallies %d+%d+%d != %d chips", s1.Pass, s1.Fail, s1.Quarantine, n)
	}
	if s1.Chips != n || len(s1.Errors) != 0 {
		t.Errorf("campaign stats: %+v", s1)
	}
	if s1.BaselineItems != n*len(merged.Items) {
		t.Errorf("baseline items %d", s1.BaselineItems)
	}
}

func TestMeasureSessionsSurvivesWorkerPanic(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	_, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	mods := func(i int) *snn.Modifiers {
		if i == 3 {
			panic("injected session panic")
		}
		return nil
	}
	s := ate.MeasureSessions(8, mods, unreliable.Reliable(), variation.None(), RetestPolicy{}, 1)
	if len(s.Errors) != 1 {
		t.Fatalf("errors = %v", s.Errors)
	}
	var we *WorkerError
	if !errors.As(s.Errors[0], &we) || we.Chip != 3 {
		t.Errorf("worker error context: %v", s.Errors[0])
	}
	if s.Pass != 7 || s.Fail != 0 || s.Quarantine != 0 {
		t.Errorf("clean chips mis-tallied: %+v", s)
	}
}

// namesRejection reports whether err is a campaign's rejection of f as a
// fault outside arch: its message names both.
func namesRejection(err error, f fault.Fault, arch snn.Arch) bool {
	return err != nil && strings.Contains(err.Error(), f.String()) && strings.Contains(err.Error(), arch.String())
}

// TestMeasureCoveragePanicSurfaces: a fault site outside the architecture,
// which the packed kernel would panic on, is rejected before simulation
// into one error in CoverageResult, not a crash of the test binary, and
// every valid fault is still tallied.
func TestMeasureCoveragePanicSurfaces(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	faults := fault.Universe(arch, fault.NASF)
	bogus := fault.Fault{Kind: fault.NASF, Neuron: snn.NeuronID{Layer: 99, Index: 7}}
	mixed := append(append([]fault.Fault{}, faults[:2]...), bogus)
	mixed = append(mixed, faults[2:]...)

	res := ate.MeasureCoverage(mixed, g.Options().Values)
	if len(res.Errors) != 1 {
		t.Fatalf("errors = %v", res.Errors)
	}
	if !namesRejection(res.Errors[0], bogus, arch) {
		t.Errorf("rejection error does not name %v and %v: %v", bogus, arch, res.Errors[0])
	}
	if res.Detected != len(faults) || len(res.Undetected) != 0 {
		t.Errorf("clean faults mis-tallied: %v", res)
	}
	if !strings.Contains(res.String(), "[1 errored]") {
		t.Errorf("String() hides errors: %s", res)
	}
}

// TestMeasureCoveragePanicInsideGroup puts the bogus fault where it would
// share a packed group with valid faults (same kind, same source layer):
// it is rejected on its own, and every other member is still tallied.
func TestMeasureCoveragePanicInsideGroup(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	faults := fault.Universe(arch, fault.NASF)
	bogus := fault.Fault{Kind: fault.NASF, Neuron: snn.NeuronID{Layer: 1, Index: 99}}
	mixed := append(append([]fault.Fault{}, faults[:2]...), bogus)
	mixed = append(mixed, faults[2:]...)
	if faults[0].Neuron.Layer != 1 {
		t.Fatalf("fixture broken: first NASF fault %v is not on layer 1", faults[0])
	}

	res := ate.MeasureCoverage(mixed, g.Options().Values)
	if len(res.Errors) != 1 {
		t.Fatalf("errors = %v", res.Errors)
	}
	if !namesRejection(res.Errors[0], bogus, arch) {
		t.Errorf("rejection error does not name %v and %v: %v", bogus, arch, res.Errors[0])
	}
	if res.Total != len(mixed) || res.Detected != len(faults) || len(res.Undetected) != 0 {
		t.Errorf("group members mis-tallied: %v", res)
	}
}

// TestMeasureCoveragePanicPerFaultUnderCollapse lists a bogus SWF site
// twice inside an SWF universe that collapses to one class per post
// neuron: a fault outside the architecture never joins a class, so the
// campaign rejects each copy with its own error and still tallies every
// valid fault through its class representative.
func TestMeasureCoveragePanicPerFaultUnderCollapse(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	universe := fault.Universe(arch, fault.SWF)
	bogus := fault.Fault{Kind: fault.SWF, Synapse: snn.SynapseID{Boundary: 0, Pre: 99, Post: 0}}
	mixed := append(append([]fault.Fault{}, universe[:7]...), bogus)
	mixed = append(mixed, universe[7:]...)
	mixed = append(mixed, bogus)

	before := faultsim.Snapshot()
	res := ate.MeasureCoverage(mixed, g.Options().Values)
	if classes := faultsim.Snapshot().Classes - before.Classes; classes >= int64(len(universe)) {
		t.Fatalf("fixture broken: %d SWF faults form %d classes", len(universe), classes)
	}
	if len(res.Errors) != 2 {
		t.Fatalf("errors = %v, want one per bogus copy", res.Errors)
	}
	for _, err := range res.Errors {
		if !namesRejection(err, bogus, arch) {
			t.Errorf("rejection error does not name %v and %v: %v", bogus, arch, err)
		}
	}
	if res.Total != len(mixed) || res.Detected != len(universe) || len(res.Undetected) != 0 {
		t.Errorf("valid faults mis-tallied: %v", res)
	}
}

// TestCampaignPanicContextOnCaller: an escape campaign over a fault outside
// the architecture returns its rejection to the caller as an error, with
// no die simulated, instead of panicking.
func TestCampaignPanicContextOnCaller(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	bogus := []fault.Fault{{Kind: fault.SWF, Synapse: snn.SynapseID{Boundary: 0, Pre: 99, Post: 0}}}
	esc, errs := ate.MeasureEscape(bogus, g.Options().Values, variation.OfTheta(0.1, 0.5), 1)
	if esc != 0 || len(errs) != 1 {
		t.Fatalf("escape = %g%%, errors %v; want 0 over no dies and one rejection", esc, errs)
	}
	if !namesRejection(errs[0], bogus[0], arch) {
		t.Errorf("rejection error does not name %v and %v: %v", bogus[0], arch, errs[0])
	}
}

func TestOutcomeAndReportStrings(t *testing.T) {
	if Pass.String() != "PASS" || Fail.String() != "FAIL" || Quarantine.String() != "QUARANTINE" {
		t.Errorf("outcome strings wrong")
	}
	if Outcome(9).String() == "" {
		t.Errorf("unknown outcome renders empty")
	}
	rep := SessionReport{Outcome: Fail, FailedItem: 3, ItemsRun: 7, BaselineItems: 10, Retests: 2}
	if !strings.Contains(rep.String(), "FAIL@3") {
		t.Errorf("report string %q", rep.String())
	}
}

func TestSessionStatsRatesWithZeroSessions(t *testing.T) {
	// The zero-chip population hits every rate helper's division guard.
	var s SessionStats
	if s.PassRate() != 0 || s.FailRate() != 0 || s.QuarantineRate() != 0 {
		t.Errorf("zero-session rates: pass %g, fail %g, quarantine %g",
			s.PassRate(), s.FailRate(), s.QuarantineRate())
	}
	if s.Amplification() != 0 {
		t.Errorf("zero-session amplification %g", s.Amplification())
	}
}

func TestMeasureSessionsRejectsInvalidProfile(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	_, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	bad := unreliable.Profile{Readout: unreliable.Readout{DropP: 1}}
	stats, err := ate.MeasureSessionsAtContext(context.Background(), identityIndices(4), nil, bad,
		variation.None(), RetestPolicy{}, 1)
	if err == nil {
		t.Fatal("full-drop profile accepted by a session campaign")
	}
	if stats.Chips != 0 || len(stats.Errors) != 1 {
		t.Errorf("stats after rejection: %+v", stats)
	}
}

func TestSessionObservePropagatesDrops(t *testing.T) {
	// A readout channel near total loss: Session.Observe must surface
	// ErrDropped (not a zero Result) and count every loss, so the retest
	// machinery above it can spend budget instead of mis-binning.
	prof := unreliable.Profile{
		Intermittence: unreliable.Always(),
		Readout:       unreliable.Readout{DropP: 0.999999},
	}
	sess := prof.NewSession(3)
	res := snn.Result{SpikeCounts: []int{5, 7}}
	drops := 0
	for i := 0; i < 200; i++ {
		got, err := sess.Observe(res)
		if errors.Is(err, unreliable.ErrDropped) {
			drops++
			if got.SpikeCounts != nil {
				t.Fatalf("dropped readout returned data: %+v", got)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if drops != sess.Drops {
		t.Errorf("observed %d drops, session counted %d", drops, sess.Drops)
	}
	if drops < 190 {
		t.Errorf("near-total drop channel only dropped %d of 200 reads", drops)
	}
}
