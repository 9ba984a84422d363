package faultsim

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
)

// contextGolden builds a Golden over a hand-made two-item set on which f is
// detected by both items.
func contextGolden(t *testing.T) (*Golden, fault.Values, fault.Fault) {
	t.Helper()
	arch := snn.Arch{3, 2}
	params := snn.DefaultParams()
	ts := pattern.NewTestSet("ctx", arch, params)
	cfg := snn.New(arch, params)
	for i := range cfg.W[0] {
		cfg.W[0][i] = params.Theta * 1.5
	}
	ci := ts.AddConfig(cfg)
	p := snn.NewPattern(3)
	p[0] = true
	ts.AddItem(pattern.Item{Label: "a", ConfigIndex: ci, Pattern: p, Timesteps: 4})
	ts.AddItem(pattern.Item{Label: "b", ConfigIndex: ci, Pattern: p.Clone(), Timesteps: 4})
	values := fault.PaperValues(params.Theta)
	f := fault.NewNeuronFault(fault.NASF, snn.NeuronID{Layer: 1, Index: 0})
	return mustGolden(t, ts), values, f
}

// TestDetectsContextMatchesPlain: under a live context both drivers return
// the oracle's verdicts — per fault for Detects, per item for
// DetectsMatrix.
func TestDetectsContextMatchesPlain(t *testing.T) {
	g, values, f := contextGolden(t)
	oracle := newScalarOracle(mustGolden(t, g.ts), values)
	if det := detects(t, g, values, []fault.Fault{f}); !det[0] || !oracle.Detects(f) {
		t.Fatalf("Detects = %v, oracle = %v; fixture expects detection", det[0], oracle.Detects(f))
	}
	assertMatrixMatchesOracle(t, detectsMatrix(t, g, values, []fault.Fault{f}), oracle, []fault.Fault{f})
}

// TestDetectsContextPreCancelled: a cancelled context makes both drivers
// return ctx.Err() and leaves the fault without a verdict.
func TestDetectsContextPreCancelled(t *testing.T) {
	g, values, f := contextGolden(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, err := g.Detects(ctx, values, []fault.Fault{f})
	if det, ok := v.Detected(0); !errors.Is(err, context.Canceled) || det || ok {
		t.Fatalf("Detects = (%v, %v, %v), want no verdict and context.Canceled", det, ok, err)
	}
	rows, err := g.DetectsMatrix(ctx, values, []fault.Fault{f})
	if !errors.Is(err, context.Canceled) || rows != nil {
		t.Fatalf("DetectsMatrix = (%v, %v), want (nil, context.Canceled)", rows, err)
	}
}

// cancelAfter is a context that reports cancellation from the (n+1)-th
// call of its Err on. At one worker Detects checks its context at fixed
// points — before claiming each group and before each item of a group's
// scan — so the cut falls at a fixed point of the campaign.
type cancelAfter struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func newCancelAfter(n int) *cancelAfter {
	return &cancelAfter{Context: context.Background(), n: int64(n)}
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// TestDetectsMidCancel cancels a one-worker campaign at every point it
// checks its context, from before the first group to after the last. Each
// verdict a cut run returns is the uncancelled run's, and the faults left
// without one are exactly the members of the groups from the first one
// not finished on: at one worker the groups run in order, so a cut leaves
// a finished prefix, then a group cut short or unclaimed, then unclaimed
// ones. Faults outside the chip never get a verdict.
func TestDetectsMidCancel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	arch := snn.Arch{5, 4, 3, 2}
	ts := uniformTestSetT(arch, 2, 3, 19, 6, false)
	values := fault.Values{ESFTheta: 0.4, HSFTheta: 0.6, SWFOmega: 0.2}
	bogus := fault.Fault{Kind: fault.SWF, Synapse: snn.SynapseID{Boundary: 0, Pre: 99, Post: 0}}
	faults := append(shuffled(fullUniverse(arch), 4), bogus)
	g := mustGolden(t, ts)
	cls := g.collapse(faults)
	groups := packGroups(faults, cls.inChip(faults, arch))
	want, err := g.Detects(context.Background(), values, faults)
	if err != nil {
		t.Fatal(err)
	}
	missed := 0
	for i := range faults[:len(faults)-1] {
		if det, ok := want.Detected(i); !ok {
			t.Fatalf("uncancelled run left %v without a verdict", faults[i])
		} else if !det {
			missed++
		}
	}
	if len(groups) < 4 || len(cls.reps) >= len(faults) || missed == 0 {
		t.Fatalf("fixture broken: %d groups, %d classes of %d faults, %d undetected", len(groups), len(cls.reps), len(faults), missed)
	}
	// group[k] is the packed group of class k, or -1 outside the chip.
	group := make([]int, len(cls.reps))
	for k := range group {
		group[k] = -1
	}
	for gi, idx := range groups {
		for _, i := range idx {
			group[cls.of[i]] = gi
		}
	}

	prev := 0
	for n := 0; prev < len(groups); n++ {
		if n > 10000 {
			t.Fatalf("%d cuts finished only %d of %d groups", n, prev, len(groups))
		}
		got, err := g.Detects(newCancelAfter(n), values, faults)
		finished := len(groups)
		for i := range faults {
			det, ok := got.Detected(i)
			if gi := group[cls.of[i]]; ok && gi < 0 {
				t.Fatalf("cut at %d: %v outside the chip got a verdict", n, faults[i])
			} else if !ok && gi >= 0 {
				finished = min(finished, gi)
			}
			if wdet, _ := want.Detected(i); ok && det != wdet {
				t.Fatalf("cut at %d: %v detected %v, uncancelled %v", n, faults[i], det, wdet)
			}
		}
		for i := range faults {
			if _, ok := got.Detected(i); ok != (group[cls.of[i]] >= 0 && group[cls.of[i]] < finished) {
				t.Fatalf("cut at %d: %v has a verdict %v, but groups before %d finished", n, faults[i], ok, finished)
			}
		}
		if finished < prev {
			t.Fatalf("cut at %d finished %d groups, an earlier cut %d", n, finished, prev)
		}
		if finished < len(groups) && !errors.Is(err, context.Canceled) {
			t.Fatalf("cut at %d: %d of %d groups finished, error %v", n, finished, len(groups), err)
		}
		prev = finished
	}
}
