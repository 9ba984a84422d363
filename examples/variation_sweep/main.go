// Variation sweep: reproduce the spirit of the paper's Fig. 4 on a
// medium-size model — test escape and overkill of the variation-aware test
// suite as memristive weight variation σ grows, plus the ν values behind
// the "negligible variation" boundary.
//
// The paper's claim: with the variation-aware settings (Table 1/2 "Yes"
// columns), the method incurs 0 % escape and 0 % overkill up to σ = 10 % θ.
// On this model escape stays 0, while overkill at 10 % θ is rare rather
// than zero: a 150-die population may show one failing good die.
package main

import (
	"fmt"
	"log"

	"neurotest"
	"neurotest/internal/fault"
	"neurotest/internal/tester"
)

func main() {
	model := neurotest.NewModel(256, 128, 32, 10)

	// Variation-aware generation under the negligible-variation assumption
	// (ν > every layer width), exactly how the paper runs its sweep.
	g, err := model.Generator(neurotest.NegligibleVariation())
	if err != nil {
		log.Fatal(err)
	}
	_, merged := g.GenerateAll()
	fmt.Printf("model %v: %d configurations, %d patterns (variation-aware)\n\n",
		model.Arch, merged.NumConfigs(), merged.NumPatterns())

	// ν for each σ tells us where the formal guarantee holds: variation is
	// negligible while ν exceeds the widest layer (Section 4.2).
	fmt.Println("sigma/theta    nu     negligible?   escape   overkill")
	ate := tester.New(merged, nil)
	faults := tester.SampleFaults(model.Arch, fault.Kinds(), 300, 1)
	for _, frac := range []float64{0.02, 0.05, 0.08, 0.10, 0.125, 0.15, 0.20} {
		vary := neurotest.VariationOfTheta(frac, model.Params.Theta)
		nu := vary.Nu(model.Params.WMax, 3)
		negligible := vary.Negligible(model.Arch, model.Params.WMax, 3)
		escape := ate.MeasureEscape(faults, model.Values, vary, 11)
		overkill := ate.MeasureOverkill(150, vary, 13)
		fmt.Printf("%11.3f %5d   %-12v %7.2f%% %9.2f%%\n",
			frac, nu, negligible, escape, overkill)
	}

	fmt.Println(`
Expected picture (mirrors the paper's Fig. 4):
  * escape stays pinned at 0 % — a fault's effect is engineered to be a
    full ωmax swing, which variation of this magnitude cannot mask;
  * up to 10 % θ overkill is rare, not zero: about 0.1 % of good dies
    fail at 10 % θ (measured over 20,000 dies), so 150 dies show none or
    one of them;
  * past ≈ 10-12 % θ the accumulated weight error starts flipping the
    engineered Ω margins and overkill rises sharply, although ν still
    exceeds the widest layer: Eq. 4 bounds one neuron's error sum at
    c = 3 standard deviations, not every neuron's on every die.`)
}
