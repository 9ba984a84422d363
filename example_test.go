package neurotest_test

import (
	"fmt"

	"neurotest"
)

// ExampleModel_GenerateSuite generates the paper's O(L) test suite for a
// small chip family and prints the per-model test counts.
func ExampleModel_GenerateSuite() {
	m := neurotest.NewModel(48, 24, 12, 6)
	suite, err := m.GenerateSuite(neurotest.NoVariation())
	if err != nil {
		panic(err)
	}
	for _, kind := range []neurotest.FaultKind{
		neurotest.NASF, neurotest.ESF, neurotest.HSF, neurotest.SWF, neurotest.SASF,
	} {
		ts := suite.PerKind[kind]
		fmt.Printf("%-4v %d configurations, %d patterns\n", kind, ts.NumConfigs(), ts.NumPatterns())
	}
	// Output:
	// NASF 1 configurations, 1 patterns
	// ESF  3 configurations, 3 patterns
	// HSF  6 configurations, 6 patterns
	// SWF  3 configurations, 3 patterns
	// SASF 1 configurations, 1 patterns
}

// ExampleModel_MeasureCoverage fault-simulates a generated test set
// exhaustively and reports its coverage.
func ExampleModel_MeasureCoverage() {
	m := neurotest.NewModel(48, 24, 12, 6)
	suite, _ := m.GenerateSuite(neurotest.NoVariation())
	cov, _ := m.MeasureCoverage(neurotest.SWF, suite.PerKind[neurotest.SWF], nil)
	fmt.Println(cov)
	// Output:
	// 100.00% (1512/1512)
}

// ExampleModel_NewATE screens a defective die with the generated program.
func ExampleModel_NewATE() {
	m := neurotest.NewModel(24, 12, 6)
	suite, _ := m.GenerateSuite(neurotest.NoVariation())
	ate := m.NewATE(suite.Merged, nil)

	good := ate.RunChip(nil)
	fmt.Println("good die passes:", good.Passed)

	defect := m.Universe(neurotest.NASF)[0]
	bad := ate.RunChip(defect.Modifiers(m.Values))
	fmt.Println("defective die passes:", bad.Passed)
	// Output:
	// good die passes: true
	// defective die passes: false
}

// ExampleRegimeForSigma computes the paper's ν for a concrete variation
// level (Eq. 4) and shows when variation counts as negligible.
func ExampleRegimeForSigma() {
	// ωmax = 10, σ = 10 % of θ = 0.05, c = 3 (99.7 % confidence).
	r := neurotest.RegimeForSigma(10, 0.05, 3)
	fmt.Println("ν =", r.Nu)
	// ν exceeds the widest layer of the paper's models (576), so 10 % θ is
	// negligible — the basis of the Fig. 4 claim.
	// Output:
	// ν = 1111
}
