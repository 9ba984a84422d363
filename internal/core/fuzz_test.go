package core

import (
	"context"
	"math"
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/snn"
)

// encodeArch packs an architecture of 2–5 layers of widths 1–14 into the
// shape argument of FuzzGeneratorCoverage; decodeArch inverts it.
func encodeArch(arch snn.Arch) uint32 {
	shape := uint32(len(arch) - 2)
	for k, w := range arch {
		shape |= uint32(w-1) << (2 + 4*k)
	}
	return shape
}

// decodeArch maps any shape to an architecture of 2–5 layers of widths
// 1–14: the low two bits give the depth, each following nibble a width.
func decodeArch(shape uint32) snn.Arch {
	arch := make(snn.Arch, 2+shape&3)
	for k := range arch {
		arch[k] = 1 + int(shape>>(2+4*k)&15)%14
	}
	return arch
}

// FuzzGeneratorCoverage is the paper's claim as a randomised property: for
// any architecture of 2–5 layers of widths 1–14, either reset mode, either
// regime, a window of 1–8 timesteps and any fault strengths
// fault.Values.Validate accepts, each fault model's generated test set has
// the configuration and pattern counts PredictedCounts gives (Table 3) and
// detects every fault of its universe through faultsim.Golden.Detects.
// On a sample of faults the driver's verdict is also checked against a
// brute-force simulation of the faulty chip compared with the golden
// results.
func FuzzGeneratorCoverage(f *testing.F) {
	for i, arch := range smallArches {
		f.Add(encodeArch(arch), i%2 == 1, i%2 == 0, uint8(3), 0.05, 0.95, 1.0)
	}
	// ω̂ below θ, negative strengths and the longest window.
	f.Add(encodeArch(snn.Arch{6, 5, 4}), false, false, uint8(3), -1.0, 2.0, 0.2)
	f.Add(encodeArch(snn.Arch{8, 7, 3, 2}), true, true, uint8(7), 0.0, 30.0, -3.0)
	// Thresholds one float away from θ (TestAdjacentThresholdsCovered).
	f.Add(encodeArch(snn.Arch{9, 6, 5, 4, 3}), false, false, uint8(2), math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), 0.5)
	f.Fuzz(checkGeneratorCoverage)
}

// checkGeneratorCoverage is FuzzGeneratorCoverage's property for one input.
func checkGeneratorCoverage(t *testing.T, shape uint32, subtract, aware bool, steps uint8, esf, hsf, omega float64) {
	params := snn.DefaultParams()
	if subtract {
		params.Reset = snn.ResetSubtract
	}
	// Mirror each threshold onto its side of θ, so most inputs are fault
	// strengths Validate accepts; the rest (θ itself, values that are not
	// finite) are skipped.
	theta := params.Theta
	if esf >= theta {
		esf = 2*theta - esf
	}
	if hsf <= theta {
		hsf = 2*theta - hsf
	}
	values := fault.Values{ESFTheta: esf, HSFTheta: hsf, SWFOmega: omega}
	if values.Validate(theta) != nil {
		t.Skip("fault strengths outside the model")
	}
	regime := NoVariation()
	if aware {
		regime = NegligibleVariation()
	}
	opt := Options{Arch: decodeArch(shape), Params: params, Values: values, Regime: regime, Timesteps: 1 + int(steps%8)}
	g, err := NewGenerator(opt)
	if err != nil {
		t.Fatalf("%+v: %v", opt, err)
	}
	for _, kind := range fault.Kinds() {
		ts := g.Generate(kind)
		if want := g.PredictedCounts(kind); ts.NumConfigs() != want || ts.NumPatterns() != want {
			t.Errorf("%+v %v: %d configurations and %d patterns, predicted %d", opt, kind, ts.NumConfigs(), ts.NumPatterns(), want)
		}
		golden, err := faultsim.NewGolden(ts)
		if err != nil {
			t.Fatalf("%+v %v: %v", opt, kind, err)
		}
		universe := fault.Universe(opt.Arch, kind)
		v, err := golden.Detects(context.Background(), values, universe)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range universe {
			if det, ok := v.Detected(i); !det || !ok {
				t.Fatalf("%+v: %v undetected (verdict %v)", opt, f, ok)
			}
		}
		// Brute force on the first, middle and last fault.
		for _, i := range []int{0, len(universe) / 2, len(universe) - 1} {
			f := universe[i]
			brute := false
			for j, it := range ts.Items {
				faulty := snn.NewSimulator(ts.Configs[it.ConfigIndex]).Run(it.Pattern, it.Timesteps, it.Mode(), f.Modifiers(values))
				if !faulty.Equal(golden.Result(j)) {
					brute = true
					break
				}
			}
			if det, _ := v.Detected(i); det != brute {
				t.Fatalf("%+v: %v detected %v, brute force %v", opt, f, det, brute)
			}
		}
	}
}
