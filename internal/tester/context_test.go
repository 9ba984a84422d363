package tester

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/snn"
	"neurotest/internal/unreliable"
	"neurotest/internal/variation"
)

// suiteFor generates the merged no-variation suite for arch, shared by the
// cancellation tests.
func suiteFor(t *testing.T, arch snn.Arch) (*ATE, []fault.Fault, fault.Values) {
	t.Helper()
	params := snn.DefaultParams()
	values := fault.PaperValues(params.Theta)
	g, err := core.NewGenerator(core.Options{
		Arch: arch, Params: params, Values: values,
		Regime: core.NoVariation(), Timesteps: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, merged := g.GenerateAll()
	var universe []fault.Fault
	for _, k := range fault.Kinds() {
		universe = append(universe, fault.Universe(arch, k)...)
	}
	return New(merged, nil), universe, values
}

func TestMeasureCoverageContextBackgroundMatchesPlain(t *testing.T) {
	ate, faults, values := suiteFor(t, snn.Arch{8, 6, 4})
	plain := ate.MeasureCoverage(faults, values)
	res, err := ate.MeasureCoverageContext(context.Background(), faults, values)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if res.Detected != plain.Detected || res.Total != plain.Total || len(res.Undetected) != len(plain.Undetected) {
		t.Fatalf("context variant diverged: %v vs %v", res, plain)
	}
}

func TestMeasureCoverageContextPreCancelled(t *testing.T) {
	ate, faults, values := suiteFor(t, snn.Arch{8, 6, 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ate.MeasureCoverageContext(ctx, faults, values)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Total != len(faults) {
		t.Fatalf("Total = %d, want %d", res.Total, len(faults))
	}
	if got := res.Detected + len(res.Undetected) + len(res.Errors); got != 0 {
		t.Fatalf("pre-cancelled campaign evaluated %d faults, want 0", got)
	}
}

// cancelAfter is a context that reports cancellation from the (n+1)-th
// call of its Err on. At one worker a coverage campaign checks its context
// at fixed points, so the cut falls at a fixed point of the campaign.
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

// TestMeasureCoverageContextMidCancel cuts a one-worker campaign, with
// faults outside the chip mixed in, at every point where it checks its
// context, until a cut no longer stops it. Each cut campaign returns
// ctx.Err() with Total counting every fault, every rejected fault in
// Errors, and exactly the faults that got a verdict from the Golden's
// Detects under the same cut tallied: its detected faults as Detected, its
// undetected ones, in input order, as Undetected.
func TestMeasureCoverageContextMidCancel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ate, universe, _ := suiteFor(t, snn.Arch{8, 6, 4})
	values := fault.Values{ESFTheta: 0.4, HSFTheta: 0.6, SWFOmega: 0.2}
	bad := outsideFaults(ate.ts.Arch)
	faults := append(append(append([]fault.Fault{}, bad[:6]...), universe...), bad[6:]...)
	golden, err := ate.goldens.get()
	if err != nil {
		t.Fatal(err)
	}
	full := ate.MeasureCoverage(faults, values)
	if full.Detected == 0 || len(full.Undetected) == 0 || len(full.Errors) != len(bad) {
		t.Fatalf("fixture broken: uncut campaign %v with %d errors", full, len(full.Errors))
	}
	for n, verdicts := 0, 0; verdicts < len(universe); n++ {
		if n > 10000 {
			t.Fatalf("%d cuts left faults without a verdict", n)
		}
		v, _ := golden.Detects(newCancelAfter(n), values, faults)
		var want CoverageResult
		for i, f := range faults {
			if det, ok := v.Detected(i); det {
				want.Detected++
			} else if ok {
				want.Undetected = append(want.Undetected, f)
			}
		}
		verdicts = want.Detected + len(want.Undetected)
		res, err := ate.MeasureCoverageContext(newCancelAfter(n), faults, values)
		if verdicts < len(universe) && !errors.Is(err, context.Canceled) {
			t.Fatalf("cut at %d: %d of %d faults got a verdict, error %v", n, verdicts, len(universe), err)
		}
		if res.Total != len(faults) || res.Detected != want.Detected || !slices.Equal(res.Undetected, want.Undetected) {
			t.Fatalf("cut at %d: tallied %v, Detects under the cut reached %d detected and %d undetected",
				n, res, want.Detected, len(want.Undetected))
		}
		if len(res.Errors) != len(bad) {
			t.Fatalf("cut at %d: %d errors for %d faults outside the chip", n, len(res.Errors), len(bad))
		}
		for k, f := range bad {
			if !namesRejection(res.Errors[k], f, ate.ts.Arch) {
				t.Errorf("cut at %d: error %d does not name %v: %v", n, k, f, res.Errors[k])
			}
		}
	}
}

func TestMeasureSessionsContextPreCancelled(t *testing.T) {
	ate, _, _ := suiteFor(t, snn.Arch{8, 6, 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := ate.MeasureSessionsAtContext(ctx, identityIndices(50), nil, unreliable.Reliable(), variation.None(), RetestPolicy{}, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if stats.Chips != 0 {
		t.Fatalf("pre-cancelled campaign ran %d chips, want 0", stats.Chips)
	}
}

// TestMeasureSessionsContextMidCancel cancels from inside the campaign (the
// mods callback fires per claimed chip) and asserts the pool drains early:
// workers stop claiming chips, sessions in flight finish, and the partial
// stats count only evaluated chips.
func TestMeasureSessionsContextMidCancel(t *testing.T) {
	ate, _, _ := suiteFor(t, snn.Arch{8, 6, 4})
	const n = 5000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Int64
	mods := func(i int) *snn.Modifiers {
		if fired.Add(1) == 10 {
			cancel()
		}
		return nil
	}
	stats, err := ate.MeasureSessionsAtContext(ctx, identityIndices(n), mods, unreliable.Reliable(), variation.None(), RetestPolicy{}, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if stats.Chips == 0 || stats.Chips >= n {
		t.Fatalf("cancelled campaign ran %d of %d chips, want a strict partial run", stats.Chips, n)
	}
	if stats.Pass != stats.Chips {
		t.Fatalf("defect-free reliable chips must all pass: %+v", stats)
	}
}

func TestMeasureSessionsContextBackgroundMatchesPlain(t *testing.T) {
	ate, faults, _ := suiteFor(t, snn.Arch{8, 6, 4})
	values := fault.PaperValues(snn.DefaultParams().Theta)
	mods := func(i int) *snn.Modifiers { return faults[i%len(faults)].Modifiers(values) }
	plain := ate.MeasureSessions(40, mods, unreliable.Reliable(), variation.None(), RetestPolicy{}, 7)
	viaCtx, err := ate.MeasureSessionsAtContext(context.Background(), identityIndices(40), mods, unreliable.Reliable(), variation.None(), RetestPolicy{}, 7)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if !reflect.DeepEqual(plain, viaCtx) {
		t.Fatalf("context variant diverged:\n%+v\n%+v", viaCtx, plain)
	}
}

func TestCloneWithTolerance(t *testing.T) {
	ate, _, _ := suiteFor(t, snn.Arch{8, 6, 4})
	clone, err := ate.CloneWithTolerance(2)
	if err != nil {
		t.Fatal(err)
	}
	if clone.tolerance != 2 {
		t.Fatalf("clone tolerance = %d, want 2", clone.tolerance)
	}
	if ate.tolerance != 0 {
		t.Fatalf("CloneWithTolerance mutated the original (tolerance %d)", ate.tolerance)
	}
	if clone.ts != ate.ts || clone.goldens != ate.goldens || clone.expected != ate.expected {
		t.Fatal("clone must share the test set and golden responses")
	}
	if _, err := ate.CloneWithTolerance(-1); err == nil {
		t.Fatal("negative tolerance must be rejected")
	}
}
