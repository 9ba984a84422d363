package diagnose

import (
	"neurotest/internal/snn"
	"neurotest/internal/tester"
)

// ObserveChip runs the FULL test program of ate against a chip under test
// (unlike the production ATE, diagnosis never stops at the first fail) and
// returns the observed pass/fail signature. mods injects the defect being
// diagnosed; ate must program the chip the way the dictionary's scheme
// does. Items compare exactly even on a tolerance clone, because every
// dictionary row counts any deviation.
func ObserveChip(ate *tester.ATE, mods *snn.Modifiers) Signature {
	fails := ate.Observe(mods)
	sig := NewSignature(len(fails))
	for i, f := range fails {
		if f {
			sig.SetFail(i)
		}
	}
	return sig
}
