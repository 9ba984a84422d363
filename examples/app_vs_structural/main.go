// Application-dependent vs application-independent testing — the
// comparison that motivates the paper (Section 1).
//
// We train an SNN classifier on a synthetic edge-vision-style workload,
// screen dies the application-dependent way (apply samples, reject on a
// changed prediction) and the paper's way (the deterministic O(L) test
// program), and compare structural fault coverage. The functional test
// misses every fault that happens not to disturb this one application —
// but a configurable chip will be reprogrammed, and yesterday's harmless
// fault is tomorrow's critical one.
package main

import (
	"fmt"
	"log"

	"neurotest"
	"neurotest/internal/apptest"
	"neurotest/internal/fault"
	"neurotest/internal/tester"
)

func main() {
	model := neurotest.NewModel(48, 24, 4)
	params := model.Params

	// 1. The application: a 4-class prototype classification task.
	ds, err := apptest.Synthetic(48, 4, 40, 0.4, 0.05, 11)
	if err != nil {
		log.Fatal(err)
	}
	train, test := ds.Split(0.7, 12)
	cl, err := apptest.Train(train, apptest.TrainOptions{
		Arch:   model.Arch,
		Params: params,
		Seed:   13,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("application: 4-class task on %v, accuracy train %.1f%% / test %.1f%%\n",
		model.Arch, 100*cl.Accuracy(cl.Net, train, nil), 100*cl.Accuracy(cl.Net, test, nil))

	// 2. Fault population: every neuron fault plus sampled synapse faults.
	var faults []neurotest.Fault
	for _, k := range []neurotest.FaultKind{neurotest.NASF, neurotest.ESF, neurotest.HSF} {
		faults = append(faults, model.Universe(k)...)
	}
	faults = append(faults, tester.SampleFaults(model.Arch,
		[]fault.Kind{fault.SWF, fault.SASF}, 400, 17)...)
	fmt.Printf("fault population: %d faults\n\n", len(faults))

	// 3. Application-dependent screening: apply the test-set stimuli to
	// the application-configured chip; reject on any changed prediction.
	funcRes := cl.FunctionalScreen(test, faults, model.Values)
	fmt.Printf("application-dependent (functional) screening:\n")
	fmt.Printf("  coverage: %.1f%% (%d/%d faults)\n",
		funcRes.Coverage(), funcRes.Detected, funcRes.Total)
	worst, mean := 1.0, 0.0
	for _, acc := range funcRes.UndetectedAccuracy {
		if acc < worst {
			worst = acc
		}
		mean += acc
	}
	if n := len(funcRes.UndetectedAccuracy); n > 0 {
		fmt.Printf("  %d escaped faults keep application accuracy mean %.1f%% (worst %.1f%%)\n",
			n, 100*mean/float64(n), 100*worst)
	}

	// 4. Application-independent screening: the paper's O(L) program.
	suite, err := model.GenerateSuite(neurotest.NoVariation())
	if err != nil {
		log.Fatal(err)
	}
	ate := model.NewATE(suite.Merged, nil)
	detected := 0
	for _, f := range faults {
		if !ate.RunChip(f.Modifiers(model.Values)).Passed {
			detected++
		}
	}
	fmt.Printf("\napplication-independent (proposed) screening:\n")
	fmt.Printf("  coverage: %.1f%% (%d/%d faults) with %d pattern applications\n",
		100*float64(detected)/float64(len(faults)), detected, len(faults),
		suite.Merged.TestLength())

	fmt.Println(`
The functional test exercises one configuration and misses faults that
this application tolerates; the deterministic program tests the silicon
for every configuration it could ever be programmed with — using a
single-digit number of pattern applications.`)
}
