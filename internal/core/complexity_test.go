package core

import (
	"neurotest/internal/fault"
)

// PredictedCounts returns the exact number of test configurations and test
// patterns the generator will emit for a fault model, i.e. the closed forms
// behind Table 3 (Lemmas 1–3) evaluated with ceiling divisions per layer.
// Because the generator emits exactly one pattern per configuration, both
// counts coincide for every model.
func (g *Generator) PredictedCounts(kind fault.Kind) int {
	arch := g.opt.Arch
	switch kind {
	case fault.NASF, fault.SASF:
		return 1
	case fault.ESF:
		total := 0
		for l := 1; l < arch.Layers(); l++ {
			prop := g.propagationSettings(CategoryStimulatedWhenFaulty, arch[l])
			total += numGroups(arch[l], prop.GroupSize)
		}
		return total
	case fault.HSF:
		total := 0
		for l := 1; l < arch.Layers(); l++ {
			prop := g.propagationSettings(CategoryInhibitedWhenFaulty, arch[l])
			total += numGroups(arch[l], prop.GroupSize)
		}
		return total
	case fault.SWF:
		cat := CategoryStimulatedWhenFaulty
		if g.opt.Values.SWFOmega <= g.opt.Params.Theta {
			cat = CategoryInhibitedWhenFaulty
		}
		total := 0
		for l := 1; l < arch.Layers(); l++ {
			act := g.activationSettings(cat, arch[l-1])
			prop := g.propagationSettings(cat, arch[l])
			total += numGroups(arch[l-1], act.GroupSize) * numGroups(arch[l], prop.GroupSize)
		}
		return total
	default:
		panic("core: unknown fault kind")
	}
}

// numGroups returns ⌈n/size⌉ (the covering-loop iteration count).
func numGroups(n, size int) int {
	if size < 1 {
		size = 1
	}
	return (n + size - 1) / size
}
