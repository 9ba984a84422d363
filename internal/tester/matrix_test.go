package tester

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/quant"
	"neurotest/internal/snn"
)

// TestDetectsMatrixMatchesFreshGolden: an ATE's detection matrix is
// faultsim's matrix over a fresh Golden of the program as the ATE's chips
// are programmed, row for row, on a plain ATE, an 8-bit per-channel one, a
// split one and a tolerance-1 clone (whose rows stay exact). The split
// ATE's chips are programmed at 2 bits per network, which changes rows, so
// its matrix must be its chip's and not its ideal goldens'.
func TestDetectsMatrixMatchesFreshGolden(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	values := g.Options().Values
	s8, err := quant.NewScheme(8, quant.PerChannel)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := quant.NewScheme(2, quant.PerNetwork)
	if err != nil {
		t.Fatal(err)
	}
	var universe []fault.Fault
	for _, k := range fault.Kinds() {
		universe = append(universe, fault.Universe(arch, k)...)
	}
	ideal := New(merged, nil)
	loose, err := ideal.CloneWithTolerance(1)
	if err != nil {
		t.Fatal(err)
	}
	var plain [][]uint64
	for _, c := range []struct {
		name   string
		ate    *ATE
		scheme *quant.Scheme // how the ATE programs its chips
	}{
		{"plain", ideal, nil},
		{"8-bit", New(merged, &s8), &s8},
		{"split", NewSplit(ideal, &coarse), &coarse},
		{"tolerance-1", loose, nil},
	} {
		got, err := c.ate.DetectsMatrix(context.Background(), universe, values)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := faultsim.NewGolden(quant.Program(merged, c.scheme)).NewEvaluator(values).DetectsMatrix(context.Background(), universe)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", c.name, len(got), len(want))
		}
		for f := range want {
			if !slices.Equal(got[f], want[f]) {
				t.Fatalf("%s: row of %v = %x, fresh Golden's %x", c.name, universe[f], got[f], want[f])
			}
		}
		if c.scheme == &coarse && reflect.DeepEqual(got, plain) {
			t.Errorf("the 2-bit scheme changed no row; the split check is vacuous")
		}
		if c.ate == ideal {
			plain = got
		}
	}
}

// TestDetectsMatrixRejectsBeforeSimulating: a fault outside the
// architecture after valid ones fails the matrix with an error naming it
// and the chip, and a cancelled context fails it with the context's error;
// neither builds a Golden.
func TestDetectsMatrixRejectsBeforeSimulating(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	values := g.Options().Values
	valid := fault.Universe(arch, fault.NASF)
	for _, f := range outsideFaults(arch) {
		before := faultsim.Snapshot().GoldenBuilds
		rows, err := New(merged, nil).DetectsMatrix(context.Background(), append(slices.Clip(valid), f), values)
		if rows != nil || !namesRejection(err, f, arch) {
			t.Errorf("%v: rows %v, error %v; want a rejection naming it", f, rows, err)
		}
		if d := faultsim.Snapshot().GoldenBuilds - before; d != 0 {
			t.Errorf("%v: %d Goldens built before the rejection", f, d)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := faultsim.Snapshot().GoldenBuilds
	if rows, err := New(merged, nil).DetectsMatrix(ctx, valid, values); rows != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled matrix: rows %v, error %v", rows, err)
	}
	if d := faultsim.Snapshot().GoldenBuilds - before; d != 0 {
		t.Errorf("cancelled matrix built %d Goldens", d)
	}
}
