package repair

import (
	"context"
	"strings"
	"sync"
	"testing"

	"neurotest/internal/chip"
	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
	"neurotest/internal/tester"
)

// buildSuite generates the merged proposed suite for an architecture.
func buildSuite(t *testing.T, arch snn.Arch) (*core.Generator, *pattern.TestSet) {
	t.Helper()
	params := snn.DefaultParams()
	g, err := core.NewGenerator(core.Options{
		Arch:   arch,
		Params: params,
		Values: fault.PaperValues(params.Theta),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, merged := g.GenerateAll()
	return g, merged
}

func fullUniverse(arch snn.Arch) []fault.Fault {
	var out []fault.Fault
	for _, k := range fault.Kinds() {
		out = append(out, fault.Universe(arch, k)...)
	}
	return out
}

// testLoop builds a loop over arch 10-8-3 with a generous spare budget
// (one 16x16 core per boundary; the workload trains well at this size).
func testLoop(t *testing.T) *Loop {
	t.Helper()
	arch := snn.Arch{10, 8, 3}
	g, merged := buildSuite(t, arch)
	l, err := New(context.Background(), Config{
		ATE:      tester.New(merged, nil),
		Values:   g.Options().Values,
		Universe: fullUniverse(arch),
		Core:     chip.CoreShape{Axons: 16, Neurons: 16},
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLoopHealthyDie(t *testing.T) {
	l := testLoop(t)
	var events []PhaseEvent
	rep, plan, err := l.Run(context.Background(), nil, func(ev PhaseEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Healthy || plan != nil {
		t.Fatalf("defect-free die: %s (plan %v)", rep, plan)
	}
	if len(events) != 1 || events[0].Phase != "test" {
		t.Fatalf("healthy die must stop after the test phase, got %+v", events)
	}
	if rep.PreAccuracy != rep.GoldenAccuracy {
		t.Errorf("healthy accuracy %v != golden %v", rep.PreAccuracy, rep.GoldenAccuracy)
	}
}

func TestClosedLoopRepairsInjectedCluster(t *testing.T) {
	l := testLoop(t)
	values := fault.PaperValues(snn.DefaultParams().Theta)
	// A two-fault cluster: an always-spiking hidden neuron plus a stuck
	// synapse on the output boundary.
	f1 := fault.NewNeuronFault(fault.NASF, snn.NeuronID{Layer: 1, Index: 2})
	f2 := fault.NewSynapseFault(fault.SWF, snn.SynapseID{Boundary: 1, Pre: 4, Post: 1})
	defect := snn.MergeModifiers(f1.Modifiers(values), f2.Modifiers(values))

	var phases []string
	rep, plan, err := l.Run(context.Background(), defect, func(ev PhaseEvent) { phases = append(phases, ev.Phase) })
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"test", "diagnose", "plan", "reprogram", "retest"}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v", phases)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases = %v, want %v", phases, want)
		}
	}
	if rep.PreFails == 0 || rep.Candidates == 0 {
		t.Fatalf("cluster went undetected: %s", rep)
	}
	if rep.Verdict != Repaired {
		t.Fatalf("verdict = %s (plan %v)", rep, plan)
	}
	if rep.PostFails != 0 {
		t.Errorf("repaired die still fails %d items", rep.PostFails)
	}
	if rep.PostAccuracy < rep.GoldenAccuracy-DefaultAccuracyBudget {
		t.Errorf("post accuracy %.4f below golden %.4f - %.2f", rep.PostAccuracy, rep.GoldenAccuracy, DefaultAccuracyBudget)
	}
	if plan.Empty() {
		t.Errorf("repair without actions")
	}
	if err := plan.Validate(l.chip); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestLoopUnrepairableWithoutSpares(t *testing.T) {
	arch := snn.Arch{8, 8, 8}
	g, merged := buildSuite(t, arch)
	l, err := New(context.Background(), Config{
		ATE:      tester.New(merged, nil),
		Values:   g.Options().Values,
		Universe: fullUniverse(arch),
		Core:     chip.CoreShape{Axons: 8, Neurons: 8}, // fully used, zero spares
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := fault.NewNeuronFault(fault.NASF, snn.NeuronID{Layer: 1, Index: 0})
	rep, plan, err := l.Run(context.Background(), f.Modifiers(g.Options().Values), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Unrepairable {
		t.Fatalf("no-spare chip produced %s (plan %v)", rep, plan)
	}
	if rep.UnrepairableFaults == 0 {
		t.Errorf("report hides the uncovered candidates: %s", rep)
	}
}

// TestLoopDeterministicUnderConcurrency pins the acceptance bar: the same
// diagnosis on the same chip yields byte-identical reports and plans across
// runs and across goroutines (exercised under -race by make race).
func TestLoopDeterministicUnderConcurrency(t *testing.T) {
	l := testLoop(t)
	values := fault.PaperValues(snn.DefaultParams().Theta)
	f1 := fault.NewNeuronFault(fault.ESF, snn.NeuronID{Layer: 1, Index: 1})
	f2 := fault.NewSynapseFault(fault.SASF, snn.SynapseID{Boundary: 0, Pre: 3, Post: 4})
	defect := snn.MergeModifiers(f1.Modifiers(values), f2.Modifiers(values))

	const runs = 6
	reports := make([]string, runs)
	plans := make([]string, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, plan, err := l.Run(context.Background(), defect, nil)
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			reports[i] = rep.String()
			plans[i] = plan.String()
		}(i)
	}
	wg.Wait()
	for i := 1; i < runs; i++ {
		if reports[i] != reports[0] {
			t.Errorf("report %d differs:\n%s\nvs\n%s", i, reports[i], reports[0])
		}
		if plans[i] != plans[0] {
			t.Errorf("plan %d differs:\n%s\nvs\n%s", i, plans[i], plans[0])
		}
	}
}

func TestLoopCancelledContext(t *testing.T) {
	l := testLoop(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := l.Run(ctx, nil, nil); err == nil {
		t.Fatal("cancelled context must abort the loop")
	}
}

// TestLoopRunBuildsNoGolden: the loop observes every die through its own
// ATE, so once that ATE holds its Golden, no run builds another — not the
// structural test of a healthy or a repairable die, and not the post-repair
// fail count of an unrepairable die on a tolerance-1 loop.
func TestLoopRunBuildsNoGolden(t *testing.T) {
	values := fault.PaperValues(snn.DefaultParams().Theta)
	cluster := snn.MergeModifiers(
		fault.NewNeuronFault(fault.NASF, snn.NeuronID{Layer: 1, Index: 2}).Modifiers(values),
		fault.NewSynapseFault(fault.SWF, snn.SynapseID{Boundary: 1, Pre: 4, Post: 1}).Modifiers(values))

	arch := snn.Arch{8, 8, 8}
	g, merged := buildSuite(t, arch)
	spareless, err := New(context.Background(), Config{
		ATE:      tester.New(merged, nil),
		Values:   g.Options().Values,
		Universe: fullUniverse(arch),
		Core:     chip.CoreShape{Axons: 8, Neurons: 8}, // fully used, zero spares
		Seed:     7,
		Opt:      Options{Tolerance: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	stuck := fault.NewNeuronFault(fault.NASF, snn.NeuronID{Layer: 1, Index: 0}).Modifiers(values)

	healthy := testLoop(t)
	for _, tc := range []struct {
		l      *Loop
		defect *snn.Modifiers
		want   Verdict
	}{{healthy, nil, Healthy}, {healthy, cluster, Repaired}, {spareless, stuck, Unrepairable}} {
		tc.l.ate.Golden(0)
		before := faultsim.Snapshot().GoldenBuilds
		rep, _, err := tc.l.Run(context.Background(), tc.defect, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Verdict != tc.want || (tc.want == Unrepairable && rep.PostFails == 0) {
			t.Fatalf("die came out %s, want %v with post-repair fails counted", rep, tc.want)
		}
		if d := faultsim.Snapshot().GoldenBuilds - before; d != 0 {
			t.Errorf("%v die: the run built %d Goldens, want 0", tc.want, d)
		}
	}
}

// TestLoopBuildsOneGolden: the dictionary is built over the loop's ATE, so
// building a loop and running a die through it simulates the program's
// good chip once, for the dictionary, the structural test and the retest.
func TestLoopBuildsOneGolden(t *testing.T) {
	before := faultsim.Snapshot().GoldenBuilds
	l := testLoop(t)
	values := fault.PaperValues(snn.DefaultParams().Theta)
	f := fault.NewNeuronFault(fault.NASF, snn.NeuronID{Layer: 1, Index: 2})
	if _, _, err := l.Run(context.Background(), f.Modifiers(values), nil); err != nil {
		t.Fatal(err)
	}
	if d := faultsim.Snapshot().GoldenBuilds - before; d != 1 {
		t.Errorf("New and one Run built %d Goldens, want 1", d)
	}
}

// TestNewRejectsBeforeSimulating: a universe fault outside the
// architecture, a cancelled context and a missing ATE each fail New with
// an error, and none of them builds a Golden.
func TestNewRejectsBeforeSimulating(t *testing.T) {
	arch := snn.Arch{12, 8, 4}
	g, merged := buildSuite(t, arch)
	bogus := fault.NewSynapseFault(fault.SWF, snn.SynapseID{Boundary: 0, Pre: 98, Post: 0})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		cfg  Config
		want string
	}{
		{"fault outside the chip", context.Background(), Config{ATE: tester.New(merged, nil), Universe: []fault.Fault{bogus}}, bogus.String()},
		{"cancelled context", cancelled, Config{ATE: tester.New(merged, nil), Universe: fullUniverse(arch)}, context.Canceled.Error()},
		{"no ATE", context.Background(), Config{Universe: fullUniverse(arch)}, "no ATE"},
	} {
		tc.cfg.Values = g.Options().Values
		before := faultsim.Snapshot().GoldenBuilds
		l, err := New(tc.ctx, tc.cfg)
		if l != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: loop %v, error %v; want an error naming %q", tc.name, l, err, tc.want)
		}
		if d := faultsim.Snapshot().GoldenBuilds - before; d != 0 {
			t.Errorf("%s: %d Goldens built before the error", tc.name, d)
		}
	}
}
