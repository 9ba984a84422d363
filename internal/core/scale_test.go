package core

import (
	"testing"
	"time"

	"neurotest/internal/fault"
	"neurotest/internal/snn"
)

func TestScaleCoverage(t *testing.T) {
	arch := snn.Arch{576, 256, 32, 10}
	g := testGenerator(t, arch, NoVariation())
	for _, kind := range fault.Kinds() {
		start := time.Now()
		ts := g.Generate(kind)
		universe := fault.Universe(arch, kind)
		missed := undetected(t, ts, g.Options().Values, universe)
		t.Logf("%v: %d/%d detected in %v", kind, len(universe)-len(missed), len(universe), time.Since(start))
		if len(missed) > 0 {
			t.Errorf("%v: %d undetected, first %v", kind, len(missed), missed[0])
		}
	}
}
