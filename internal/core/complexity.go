package core

import (
	"neurotest/internal/fault"
)

// Table3Row reports the asymptotic count of Table 3 for a fault model under
// the given regime, expressed as the multiple of (L-1) it evaluates to when
// every layer is wide (width divisible by the group fractions). The paper's
// row entries are:
//
//	no variation:  NASF/SASF 1, ESF (L-1), HSF 2(L-1), SWF(ω̂>θ) (L-1),
//	               SWF(ω̂≤θ) 4(L-1)
//	negligible:    NASF/SASF 1, ESF (L-1), HSF 4(L-1), SWF(ω̂>θ) 4(L-1),
//	               SWF(ω̂≤θ) 16(L-1)
//
// Table3Row returns (multiplier, perChip) where perChip is true for the
// models tested with a single configuration regardless of L.
func Table3Row(kind fault.Kind, swfAboveTheta, considerVariation bool) (multiplier int, single bool) {
	switch kind {
	case fault.NASF, fault.SASF:
		return 1, true
	case fault.ESF:
		return 1, false
	case fault.HSF:
		if considerVariation {
			return 4, false
		}
		return 2, false
	case fault.SWF:
		if swfAboveTheta {
			if considerVariation {
				return 4, false
			}
			return 1, false
		}
		if considerVariation {
			return 16, false
		}
		return 4, false
	default:
		panic("core: unknown fault kind")
	}
}
