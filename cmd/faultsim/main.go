// Command faultsim is a standalone fault simulator: it loads a stored test
// set (or generates the proposed suite), fault-simulates a fault universe
// against it and prints per-model coverage plus the undetected faults.
//
// Usage:
//
//	faultsim [-i tests.bin [-json-in]] [-arch 576-256-32-10]
//	         [-kind all|NASF|ESF|HSF|SWF|SASF] [-bits N] [-list-undetected]
//
// Without -i the proposed suite for -arch is generated on the fly, which
// makes the tool a one-line check of the paper's 100 % coverage claim:
//
//	faultsim -arch 576-256-64-32-10
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"neurotest"
	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/pattern"
	"neurotest/internal/quant"
	"neurotest/internal/snn"
)

func main() {
	var (
		in             = flag.String("i", "", "stored test set (default: generate the proposed suite)")
		jsonIn         = flag.Bool("json-in", false, "input is JSON instead of compact binary")
		archFlag       = flag.String("arch", "576-256-32-10", "layer widths when generating")
		kindFlag       = flag.String("kind", "all", "fault model or all")
		bits           = flag.Int("bits", 0, "quantize configurations (per-channel) to this many bits")
		listUndetected = flag.Bool("list-undetected", false, "print every undetected fault")
	)
	flag.Parse()

	if err := run(*in, *jsonIn, *archFlag, *kindFlag, *bits, *listUndetected); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run(in string, jsonIn bool, archFlag, kindFlag string, bits int, listUndetected bool) error {
	var ts *neurotest.TestSet
	var arch snn.Arch
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		if jsonIn {
			ts, err = pattern.ReadJSON(f)
		} else {
			ts, err = pattern.ReadBinary(f)
		}
		if err != nil {
			return err
		}
		arch = ts.Arch
	} else {
		parts := strings.Split(archFlag, "-")
		for _, p := range parts {
			n, err := strconv.Atoi(p)
			if err != nil {
				return fmt.Errorf("bad layer width %q", p)
			}
			arch = append(arch, n)
		}
		if err := arch.Validate(); err != nil {
			return err
		}
		m := neurotest.NewModel(arch...)
		g, err := m.Generator(neurotest.NoVariation())
		if err != nil {
			return err
		}
		_, merged := g.GenerateAll()
		ts = merged
	}

	var transform faultsim.ConfigTransform
	if bits > 0 {
		s, err := quant.NewScheme(bits, quant.PerChannel)
		if err != nil {
			return fmt.Errorf("bad -bits: %w", err)
		}
		transform = func(n *snn.Network) *snn.Network {
			c, _ := s.QuantizedClone(n)
			return c
		}
	}

	values := fault.PaperValues(ts.Params.Theta)
	eng := faultsim.NewGolden(ts, transform).NewEvaluator(values)

	kinds := fault.Kinds()
	if !strings.EqualFold(kindFlag, "all") {
		found := false
		for _, k := range kinds {
			if strings.EqualFold(kindFlag, k.String()) {
				kinds = []fault.Kind{k}
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown fault kind %q", kindFlag)
		}
	}

	fmt.Printf("test set %q on %v: %d configs, %d patterns\n",
		ts.Name, arch, ts.NumConfigs(), ts.NumPatterns())
	for _, k := range kinds {
		universe := fault.Universe(arch, k)
		start := time.Now()
		missed, err := eng.Undetected(context.Background(), universe)
		if err != nil {
			return err
		}
		detected := len(universe) - len(missed)
		fmt.Printf("%-5v %8d faults: %8d detected (%6.2f%%) in %v\n",
			k, len(universe), detected,
			100*float64(detected)/float64(len(universe)), time.Since(start).Round(time.Millisecond))
		if listUndetected {
			for _, f := range missed {
				fmt.Printf("      undetected: %v\n", f)
			}
		}
	}
	return nil
}
