// Diagnosis: beyond detection — build a fault dictionary from the O(L)
// test program and locate an unknown defect from the pass/fail signature a
// tester observes.
//
// The paper stops at pass/fail screening; this example shows the library's
// extension to fault localisation and measures how *diagnosable* the
// minimal test sets are: items are layer-targeted, so a signature always
// pins down the failing layer (and often much more), while faults inside
// one covering group remain equivalent — the classic resolution-vs-test-
// length trade-off.
package main

import (
	"fmt"
	"log"

	"neurotest"
)

func main() {
	model := neurotest.NewModel(96, 48, 16, 8)
	suite, err := model.GenerateSuite(neurotest.NoVariation())
	if err != nil {
		log.Fatal(err)
	}
	program := suite.Merged
	fmt.Printf("model %v: %d-item test program\n", model.Arch, program.NumPatterns())

	// Build the dictionary over all five fault universes.
	var universe []neurotest.Fault
	for _, k := range []neurotest.FaultKind{
		neurotest.NASF, neurotest.ESF, neurotest.HSF, neurotest.SWF, neurotest.SASF,
	} {
		universe = append(universe, model.Universe(k)...)
	}
	fmt.Printf("building dictionary over %d faults ...\n", len(universe))
	ate := model.NewATE(program, nil) // the dictionary and the die's test share it
	dict, err := model.BuildDictionary(ate, universe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(dict)
	res := dict.Resolution()
	fmt.Printf("resolution: %d signature classes, %d faults uniquely diagnosed, mean candidates %.1f\n\n",
		res.Classes, res.UniquelyDiagnosed, res.MeanClassSize)

	// A "returned die" with an unknown defect (we secretly know it).
	secret := model.Universe(neurotest.HSF)[50]
	fmt.Printf("testing a returned die (secret defect: %v) ...\n", secret)
	sig := model.DiagnoseChip(ate, secret.Modifiers(model.Values))
	fmt.Printf("observed signature: %s  (%d failing items)\n", sig, sig.CountFails())
	for i := 0; i < program.NumPatterns(); i++ {
		if sig.Fails(i) {
			fmt.Printf("  failing item: %s\n", program.Items[i].Label)
		}
	}

	candidates := dict.Lookup(sig)
	fmt.Printf("diagnosis: %d candidate fault(s)\n", len(candidates))
	for i, c := range candidates {
		if i >= 8 {
			fmt.Printf("  ... and %d more\n", len(candidates)-8)
			break
		}
		marker := ""
		if c == secret {
			marker = "   <== the actual defect"
		}
		fmt.Printf("  %v%s\n", c, marker)
	}

	fmt.Println(`
The minimal O(L) program localises the failing layer by construction (each
item targets one layer's covering group). For finer resolution, generate
with a ν-limited regime — smaller covering groups mean more items and
sharper signatures — or apply adaptive follow-up patterns to the candidate
set.`)
}
