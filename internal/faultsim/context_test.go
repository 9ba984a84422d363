package faultsim

import (
	"context"
	"errors"
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
)

// contextEvaluator builds an evaluator over a hand-made two-item set on
// which f is detected by both items.
func contextEvaluator(t *testing.T) (*Evaluator, fault.Fault) {
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
	return NewGolden(ts).NewEvaluator(values), f
}

// TestDetectsContextMatchesPlain: under a live context both drivers return
// the oracle's verdicts — per fault for DetectsBatch, per item for
// DetectsMatrix.
func TestDetectsContextMatchesPlain(t *testing.T) {
	e, f := contextEvaluator(t)
	oracle := newScalarOracle(NewGolden(e.g.ts).NewEvaluator(e.values))
	det, err := e.DetectsBatch(context.Background(), []fault.Fault{f})
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if !det[0] || !oracle.Detects(f) {
		t.Fatalf("DetectsBatch = %v, oracle = %v; fixture expects detection", det[0], oracle.Detects(f))
	}
	rows, err := e.DetectsMatrix(context.Background(), []fault.Fault{f})
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	assertMatrixMatchesOracle(t, rows, oracle, []fault.Fault{f})
}

// TestDetectsContextPreCancelled: a cancelled context makes both drivers
// return ctx.Err() and report no detection.
func TestDetectsContextPreCancelled(t *testing.T) {
	e, f := contextEvaluator(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	det, err := e.DetectsBatch(ctx, []fault.Fault{f})
	if !errors.Is(err, context.Canceled) || det != nil {
		t.Fatalf("DetectsBatch = (%v, %v), want (nil, context.Canceled)", det, err)
	}
	rows, err := e.DetectsMatrix(ctx, []fault.Fault{f})
	if !errors.Is(err, context.Canceled) || rows != nil {
		t.Fatalf("DetectsMatrix = (%v, %v), want (nil, context.Canceled)", rows, err)
	}
	if n, err := e.Coverage(ctx, []fault.Fault{f}); n != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("Coverage = (%d, %v), want (0, context.Canceled)", n, err)
	}
}
