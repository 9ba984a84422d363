// Custom model: the full production flow on a user-defined chip family —
// define an architecture and LIF parameters, generate tests, program them
// into the hardware chip model (crossbar cores with a quantized weight
// memory), store the test program in the compact binary tester format, and
// screen a batch of dies that includes known-bad ones.
package main

import (
	"bytes"
	"fmt"
	"log"

	"neurotest"
	"neurotest/internal/chip"
	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
	"neurotest/internal/tester"
	"neurotest/internal/variation"
)

func main() {
	// A custom edge-inference chip: 4 layers, 128 sensor inputs.
	model := neurotest.NewModel(128, 64, 24, 4)
	fmt.Printf("chip family %v: %d neurons, %d synapses\n",
		model.Arch, model.Arch.Neurons(), model.Arch.Synapses())

	// 1. Generate the test program.
	g, err := model.Generator(neurotest.NoVariation())
	if err != nil {
		log.Fatal(err)
	}
	_, program := g.GenerateAll()
	fmt.Printf("test program: %d configurations, %d patterns\n",
		program.NumConfigs(), program.NumPatterns())

	// 2. Ship it in the compact tester format (round-trip shown here).
	var wire bytes.Buffer
	if err := pattern.WriteBinary(&wire, program); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tester image: %d bytes binary\n", wire.Len())
	program, err = pattern.ReadBinary(&wire)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Verify the program against the hardware model: program each
	// configuration into the crossbar chip (8-bit weight memory with
	// per-channel scales) and check the golden outputs survive the memory.
	hw, err := chip.New(chip.Config{
		Arch:       model.Arch,
		Params:     model.Params,
		Core:       chip.CoreShape{Axons: 64, Neurons: 64},
		WeightBits: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hardware model: %d crossbar cores of 64x64\n", hw.NumCores())
	ate := tester.New(program, nil)
	for i, it := range program.Items {
		if err := hw.Program(program.Configs[it.ConfigIndex]); err != nil {
			log.Fatal(err)
		}
		got, err := hw.Apply(it.Pattern, it.Timesteps, nil)
		if err != nil {
			log.Fatal(err)
		}
		if !got.Equal(ate.Golden(i)) {
			log.Fatalf("item %d (%s): hardware output %v != golden %v",
				i, it.Label, got.SpikeCounts, ate.Golden(i).SpikeCounts)
		}
	}
	fmt.Println("hardware check: all items match golden responses on a good die")

	// 4. Screen a small batch: 6 good dies and 4 dies with seeded defects.
	batch := []struct {
		name string
		mods *snn.Modifiers
	}{
		{"die-01 (good)", nil},
		{"die-02 (good)", nil},
		{"die-03 (NASF n[2,5])", fault.NewNeuronFault(fault.NASF, snn.NeuronID{Layer: 1, Index: 4}).Modifiers(model.Values)},
		{"die-04 (good)", nil},
		{"die-05 (HSF n[3,1])", fault.NewNeuronFault(fault.HSF, snn.NeuronID{Layer: 2, Index: 0}).Modifiers(model.Values)},
		{"die-06 (SWF w[1,7,3])", fault.NewSynapseFault(fault.SWF, snn.SynapseID{Boundary: 0, Pre: 6, Post: 2}).Modifiers(model.Values)},
		{"die-07 (good)", nil},
		{"die-08 (SASF w[2,2,2])", fault.NewSynapseFault(fault.SASF, snn.SynapseID{Boundary: 1, Pre: 1, Post: 1}).Modifiers(model.Values)},
		{"die-09 (good)", nil},
		{"die-10 (good)", nil},
	}
	fmt.Println("\nscreening batch:")
	rng := neurotest.NewRNG(2024)
	for _, die := range batch {
		v := ate.RunChip(die.mods, variation.None(), rng)
		verdict := "PASS"
		if !v.Passed {
			verdict = fmt.Sprintf("FAIL at item %d (%s)", v.FailedItem, program.Items[v.FailedItem].Label)
		}
		fmt.Printf("  %-22s %s\n", die.name, verdict)
	}
}
