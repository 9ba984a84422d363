// Command faultsim is a standalone fault simulator: it loads a stored test
// set (or generates the proposed suite), measures the coverage of each
// fault model's universe through the tester's ATE, the campaign every other
// tool runs, and prints it per model plus the undetected faults.
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
	"flag"
	"fmt"
	"os"
	"time"

	"neurotest"
	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/quant"
	"neurotest/internal/snn"
	"neurotest/internal/tester"
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
	kind, all, err := fault.ParseKind(kindFlag)
	if err != nil {
		return err
	}
	kinds := []fault.Kind{kind}
	if all {
		kinds = fault.Kinds()
	}

	var ts *neurotest.TestSet
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
	} else {
		arch, err := snn.ParseArch(archFlag)
		if err != nil {
			return err
		}
		g, err := neurotest.NewModel(arch...).Generator(neurotest.NoVariation())
		if err != nil {
			return err
		}
		_, ts = g.GenerateAll()
	}

	var scheme *quant.Scheme
	if bits > 0 {
		s, err := quant.NewScheme(bits, quant.PerChannel)
		if err != nil {
			return fmt.Errorf("bad -bits: %w", err)
		}
		scheme = &s
	}

	ate := tester.New(ts, scheme)
	values := fault.PaperValues(ts.Params.Theta)
	fmt.Printf("test set %q on %v: %d configs, %d patterns\n",
		ts.Name, ts.Arch, ts.NumConfigs(), ts.NumPatterns())
	for _, k := range kinds {
		universe := fault.Universe(ts.Arch, k)
		start := time.Now()
		cov := ate.MeasureCoverage(universe, values)
		if len(cov.Errors) > 0 {
			return fmt.Errorf("%v campaign: %w", k, cov.Errors[0])
		}
		fmt.Printf("%-5v %8d faults: %8d detected (%6.2f%%) in %v\n",
			k, cov.Total, cov.Detected, cov.Coverage(), time.Since(start).Round(time.Millisecond))
		if listUndetected {
			for _, f := range cov.Undetected {
				fmt.Printf("      undetected: %v\n", f)
			}
		}
	}
	return nil
}
