package margin_test

import (
	"math"
	"testing"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/margin"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
	"neurotest/internal/tester"
	"neurotest/internal/variation"
)

func mustAnalyze(t *testing.T, ts *pattern.TestSet, c float64, k int) margin.Report {
	t.Helper()
	rep, err := margin.Analyze(ts, c, k)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func suite(t testing.TB, arch snn.Arch, regime core.Regime) *pattern.TestSet {
	t.Helper()
	params := snn.DefaultParams()
	g, err := core.NewGenerator(core.Options{
		Arch:   arch,
		Params: params,
		Values: fault.PaperValues(params.Theta),
		Regime: regime,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, merged := g.GenerateAll()
	return merged
}

func TestBindingMarginIsActivationMargin(t *testing.T) {
	// For the paper's parameters the binding margin of the variation-aware
	// program is the ESF/HSF activation margin |θ−θ̂|/2 = 0.225 on a
	// single spiking input: σ tolerance = 0.225/(3·√1) = 0.075 = 15 % θ.
	ts := suite(t, snn.Arch{16, 12, 8}, core.NegligibleVariation())
	rep := mustAnalyze(t, ts, 3, 5)
	if math.Abs(rep.Binding.Margin-0.225) > 1e-9 {
		t.Errorf("binding margin = %g, want 0.225", rep.Binding.Margin)
	}
	if rep.Binding.Stimulated != 1 {
		t.Errorf("binding stimulated = %d, want 1 (the single pre-target)", rep.Binding.Stimulated)
	}
	if math.Abs(rep.SigmaTolerance-0.075) > 1e-9 {
		t.Errorf("σ tolerance = %g, want 0.075", rep.SigmaTolerance)
	}
	if len(rep.Worst) != 5 {
		t.Errorf("worst list length = %d", len(rep.Worst))
	}
	for i := 1; i < len(rep.Worst); i++ {
		if rep.Worst[i].SigmaTolerance < rep.Worst[i-1].SigmaTolerance {
			t.Errorf("worst list not sorted")
		}
	}
	if rep.String() == "" || rep.Binding.String() == "" {
		t.Errorf("empty renderings")
	}
}

// TestMarginPredictsOverkillOnset is the scientific payoff: the analytical
// σ tolerance must separate the zero-overkill region from the failing one.
// Per-neuron it is a 3σ bound, so a program with many marginal neurons
// starts showing *some* overkill somewhat below it and collapses above it.
func TestMarginPredictsOverkillOnset(t *testing.T) {
	arch := snn.Arch{64, 48, 16}
	ts := suite(t, arch, core.NegligibleVariation())
	rep := mustAnalyze(t, ts, 3, 1)
	ate := tester.New(ts, nil)

	// Well below the bound: zero overkill.
	below := ate.MeasureOverkill(60, variation.Model{Sigma: rep.SigmaTolerance * 0.5}, 11)
	if below != 0 {
		t.Errorf("overkill %.2f%% at half the analytic tolerance", below)
	}
	// Well above: heavy overkill.
	above := ate.MeasureOverkill(60, variation.Model{Sigma: rep.SigmaTolerance * 3}, 13)
	if above < 50 {
		t.Errorf("overkill only %.2f%% at 3x the analytic tolerance", above)
	}
}

func TestZeroChargeProgramsAreInfinitelyTolerant(t *testing.T) {
	// A program whose only item drives no charge anywhere (all-zero input,
	// the NASF item alone) accumulates no weight error at all.
	arch := snn.Arch{6, 4}
	params := snn.DefaultParams()
	g, err := core.NewGenerator(core.Options{
		Arch:   arch,
		Params: params,
		Values: fault.PaperValues(params.Theta),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := g.Generate(fault.NASF)
	rep := mustAnalyze(t, ts, 3, 3)
	if !math.IsInf(rep.SigmaTolerance, 1) {
		t.Errorf("silent program tolerance = %g, want +Inf", rep.SigmaTolerance)
	}
}

func TestAnalyzeRejectsBadConfidence(t *testing.T) {
	ts := suite(t, snn.Arch{6, 4}, core.NoVariation())
	for _, c := range []float64{0, -1} {
		if _, err := margin.Analyze(ts, c, 1); err == nil {
			t.Errorf("confidence %g accepted", c)
		}
	}
}

func TestNoVariationProgramHasThetaMargin(t *testing.T) {
	// The no-variation SWF construction drives Ω_p = 0 into targets with
	// every presynaptic neuron spiking: margin θ over |N^{l-1}| inputs —
	// the reason Tables 5/6 simulate good chips without variation.
	arch := snn.Arch{64, 32, 8}
	ts := suite(t, arch, core.NoVariation())
	rep := mustAnalyze(t, ts, 3, 1)
	wantTol := 0.5 / (3 * math.Sqrt(64))
	if math.Abs(rep.SigmaTolerance-wantTol) > 1e-9 {
		t.Errorf("no-variation tolerance = %g, want %g", rep.SigmaTolerance, wantTol)
	}
	if rep.Binding.Stimulated != 64 {
		t.Errorf("binding stimulated = %d, want 64", rep.Binding.Stimulated)
	}
}

// benchReport keeps the benchmarked report observable.
var benchReport margin.Report

// BenchmarkAnalyze times the margin analysis of the 5-layer paper model's
// variation-aware program, the one `neurotest margins` analyses by default
// for that architecture: one traced simulation per item plus the walk over
// every neuron's recorded potentials.
func BenchmarkAnalyze(b *testing.B) {
	ts := suite(b, snn.Arch{576, 256, 64, 32, 10}, core.NegligibleVariation())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := margin.Analyze(ts, 3, 8)
		if err != nil {
			b.Fatal(err)
		}
		benchReport = rep
	}
}
