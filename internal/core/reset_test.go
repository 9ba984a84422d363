package core

import (
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/snn"
)

// TestFullCoverageResetSubtract verifies the generated tests remain valid
// under snntorch's subtract reset mechanism: every fault of every model is
// still detected on small models, because detection compares outputs of
// good and faulty chips simulated under the SAME dynamics and the
// engineered Ω margins do not depend on the reset mechanism.
func TestFullCoverageResetSubtract(t *testing.T) {
	params := snn.DefaultParams()
	params.Reset = snn.ResetSubtract
	for _, arch := range smallArches {
		g, err := NewGenerator(Options{
			Arch:   arch,
			Params: params,
			Values: fault.PaperValues(params.Theta),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range fault.Kinds() {
			ts := g.Generate(kind)
			universe := fault.Universe(arch, kind)
			missed := undetected(t, ts, g.Options().Values, universe)
			if len(missed) > 0 {
				t.Errorf("%v %v under reset-subtract: %d/%d undetected, first %v",
					arch, kind, len(missed), len(universe), missed[0])
			}
		}
	}
}
