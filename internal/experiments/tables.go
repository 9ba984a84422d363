package experiments

import (
	"fmt"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/report"
	"neurotest/internal/snn"
	"neurotest/internal/tester"
	"neurotest/internal/variation"
)

// Table3 reproduces the complexity table: the number of test configurations
// and patterns per fault model under no and negligible weight variation,
// comparing the closed-form Table 3 entries with the counts the generator
// actually emits for both paper models.
func (r *Runner) Table3() *report.Table {
	t := report.NewTable(
		"Table 3: number of test configurations and test patterns (formula vs generated)",
		"Model", "Variation", "NASF/SASF", "ESF", "HSF", "SWF(ω̂>θ)",
	)
	for _, arch := range PaperArches() {
		L := arch.Layers()
		for _, regime := range []core.Regime{core.NoVariation(), core.NegligibleVariation()} {
			g, err := core.NewGenerator(core.Options{
				Arch: arch, Params: r.params, Values: r.values, Regime: regime,
			})
			if err != nil {
				//lint:ignore no-panic table architectures are compile-time constants the generator accepts
				panic(err)
			}
			label := "no"
			if regime.Consider {
				label = "negligible"
			}
			cell := func(kind fault.Kind) string {
				mult, single := core.Table3Row(kind, r.values.SWFOmega > r.params.Theta, regime.Consider)
				formula := mult
				if !single {
					formula = mult * (L - 1)
				}
				got := g.Generate(kind).NumPatterns()
				return fmt.Sprintf("%d (formula %d)", got, formula)
			}
			t.AddRow(arch.String(), label, cell(fault.NASF), cell(fault.ESF), cell(fault.HSF), cell(fault.SWF))
		}
	}
	return t
}

// MethodCells holds one method's column block of a Table 5/6 reproduction.
type MethodCells struct {
	Method     Method
	Kind       fault.Kind
	Configs    int
	Patterns   int
	Repetition int
	TestLength int
	// Coverage without / with 8-bit quantization, in percent.
	CovIdeal float64
	CovQuant float64
	// Overkill without / with 8-bit quantization, in percent.
	OverkillIdeal float64
	OverkillQuant float64
}

// measureMethod fills one MethodCells for (arch, method, kind).
func (r *Runner) measureMethod(arch snn.Arch, m Method, kind fault.Kind) MethodCells {
	ts := r.Suite(arch, m, kind, false)
	cells := MethodCells{
		Method:     m,
		Kind:       kind,
		Configs:    ts.NumConfigs(),
		Patterns:   ts.NumPatterns(),
		Repetition: ts.MaxRepeat(),
		TestLength: ts.TestLength(),
	}
	universe := r.universeSample(arch, kind, m)

	// Coverage: faulty vs good chip through identical programming.
	ideal := tester.New(ts, nil)
	cells.CovIdeal = ideal.MeasureCoverage(universe, r.values).Coverage()
	r.progress("%v %v %v coverage ideal: %.2f%%", arch, m, kind, cells.CovIdeal)
	quantized := tester.New(ts, eightBit())
	cells.CovQuant = quantized.MeasureCoverage(universe, r.values).Coverage()
	r.progress("%v %v %v coverage 8-bit: %.2f%%", arch, m, kind, cells.CovQuant)

	// Overkill: golden against the ideal model; good chips carry no
	// variation (the paper's table protocol: its no-variation constructions
	// have Ω margins of only θ, so variation belongs to Fig. 4), optionally
	// programmed through the 8-bit quantizer. Long baseline programs are
	// capped per chip; an uncapped program is golden-simulated once, by the
	// ideal coverage ATE, for all three campaigns.
	capped := capItems(ts, r.cfg.BaselineItemCap)
	tol := 1 // statistical testers accept counts within rate-estimation resolution
	if m == Proposed {
		capped = ts
		tol = 0 // the deterministic method expects exact outputs
	}
	base := ideal
	if capped != ts {
		base = tester.New(capped, nil)
	}
	okIdeal := withTolerance(base, tol)
	cells.OverkillIdeal = okIdeal.MeasureOverkill(r.cfg.GoodChips, variation.None(), r.cfg.Seed+uint64(kind)+1)
	okQuant := withTolerance(tester.NewSplit(base, eightBit()), tol)
	cells.OverkillQuant = okQuant.MeasureOverkill(r.cfg.GoodChips, variation.None(), r.cfg.Seed+uint64(kind)+2)
	r.progress("%v %v %v overkill: %.2f%% / %.2f%%", arch, m, kind, cells.OverkillIdeal, cells.OverkillQuant)
	return cells
}

// GenerationTable reproduces Table 5 (neuron faults) or Table 6 (synapse
// faults) for one architecture: one column block per method, the paper's
// eight result rows.
func (r *Runner) GenerationTable(arch snn.Arch, kinds []fault.Kind, title string) (*report.Table, []MethodCells) {
	header := []string{"Row"}
	var blocks []MethodCells
	for _, m := range Methods() {
		for _, k := range kinds {
			header = append(header, fmt.Sprintf("%v %v", m, k))
			blocks = append(blocks, r.measureMethod(arch, m, k))
		}
	}
	t := report.NewTable(fmt.Sprintf("%s — %s model", title, arch), header...)
	addRow := func(name string, f func(MethodCells) string) {
		row := []string{name}
		for _, b := range blocks {
			row = append(row, f(b))
		}
		t.AddRow(row...)
	}
	addRow("No. of faults", func(b MethodCells) string {
		return report.Comma(fault.UniverseSize(arch, b.Kind))
	})
	addRow("No. of test config.", func(b MethodCells) string { return report.Comma(b.Configs) })
	addRow("No. of test patterns", func(b MethodCells) string { return report.Comma(b.Patterns) })
	addRow("Test repetition", func(b MethodCells) string { return report.Comma(b.Repetition) })
	addRow("Test length", func(b MethodCells) string { return report.Comma(b.TestLength) })
	addRow("Fault coverage w/o quant (%)", func(b MethodCells) string { return fmt.Sprintf("%.2f", b.CovIdeal) })
	addRow("Fault coverage w/ 8-bit (%)", func(b MethodCells) string { return fmt.Sprintf("%.2f", b.CovQuant) })
	addRow("Overkill w/o quant (%)", func(b MethodCells) string { return fmt.Sprintf("%.2f", b.OverkillIdeal) })
	addRow("Overkill w/ 8-bit (%)", func(b MethodCells) string { return fmt.Sprintf("%.2f", b.OverkillQuant) })
	return t, blocks
}

// Table5 reproduces the neuron-fault results for one architecture.
func (r *Runner) Table5(arch snn.Arch) (*report.Table, []MethodCells) {
	return r.GenerationTable(arch, fault.NeuronKinds(), "Table 5: test generation results of neuron faults")
}

// Table6 reproduces the synapse-fault results for one architecture.
func (r *Runner) Table6(arch snn.Arch) (*report.Table, []MethodCells) {
	return r.GenerationTable(arch, []fault.Kind{fault.SASF, fault.SWF}, "Table 6: test generation results of synapse faults")
}

// RatioTable reproduces the paper's total-test-length comparison: summed
// test length of every fault model, per method and architecture, and the
// improvement factor of the proposed method (the ">73,826x shorter" claim).
func (r *Runner) RatioTable() *report.Table {
	t := report.NewTable(
		"Total test length (all five fault models) and improvement factors",
		"Model", "Method", "Total test length", "vs Proposed",
	)
	for _, arch := range PaperArches() {
		totals := make(map[Method]int)
		for _, m := range Methods() {
			for _, kind := range fault.Kinds() {
				totals[m] += r.Suite(arch, m, kind, false).TestLength()
			}
		}
		for _, m := range Methods() {
			t.AddRow(arch.String(), m.String(), report.Comma(totals[m]),
				report.Ratio(totals[m], totals[Proposed]))
		}
	}
	return t
}

// FlakyTable renders a FlakySweep result as the retest-policy table: one row
// per (activation probability, retest budget) point.
func FlakyTable(arch snn.Arch, readout, policy string, points []FlakyPoint) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Flaky-chip retest sweep — %s model (%s, %s)", arch, readout, policy),
		"p(active)", "budget", "detect %", "escape %", "quar.faulty %",
		"overkill %", "quar.good %", "amplification",
	)
	for _, pt := range points {
		t.AddRow(
			fmt.Sprintf("%.2f", pt.P),
			fmt.Sprintf("%d", pt.Budget),
			fmt.Sprintf("%.2f", pt.Detection),
			fmt.Sprintf("%.2f", pt.Escape),
			fmt.Sprintf("%.2f", pt.FaultyQuarantine),
			fmt.Sprintf("%.2f", pt.Overkill),
			fmt.Sprintf("%.2f", pt.GoodQuarantine),
			fmt.Sprintf("%.4f", pt.Amplification),
		)
	}
	return t
}

// OnlineTable renders an OnlineSweep result as the in-field monitoring
// table: one row per (model, activation probability, threshold) point.
func OnlineTable(arch snn.Arch, readout string, points []OnlinePoint) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("In-field online monitor sweep — %s model (%s, clustered defects, escalation budget 3, vote)", arch, readout),
		"model", "p(active)", "h", "detect %", "fp %", "latency", "confirmed %", "quarantined %",
	)
	for _, pt := range points {
		t.AddRow(
			pt.Model,
			fmt.Sprintf("%.2f", pt.P),
			fmt.Sprintf("%.0f", pt.Threshold),
			fmt.Sprintf("%.2f", pt.Detection),
			fmt.Sprintf("%.2f", pt.FalsePositive),
			fmt.Sprintf("%.1f", pt.Latency),
			fmt.Sprintf("%.2f", pt.Confirmed),
			fmt.Sprintf("%.2f", pt.Quarantined),
		)
	}
	return t
}

// RepairTable renders one architecture's repair sweep: recovered yield and
// post-repair application accuracy vs injected fault density.
func RepairTable(arch snn.Arch, spares int, points []RepairPoint) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Diagnosis-driven repair sweep — %s model (%d spare lines/core, clustered defects)", arch, spares),
		"clusters/die", "chips", "healthy", "repaired", "degraded", "unrepairable",
		"unrepaired yield %", "recovered yield %", "cells retired", "acc golden", "acc pre", "acc post",
	)
	for _, pt := range points {
		t.AddRow(
			fmt.Sprintf("%d", pt.Clusters),
			fmt.Sprintf("%d", pt.Dies),
			fmt.Sprintf("%d", pt.Healthy),
			fmt.Sprintf("%d", pt.Repaired),
			fmt.Sprintf("%d", pt.Degraded),
			fmt.Sprintf("%d", pt.Unrepairable),
			fmt.Sprintf("%.1f", pt.UnrepairedYield()),
			fmt.Sprintf("%.1f", pt.RecoveredYield()),
			fmt.Sprintf("%d", pt.CellsRetired),
			fmt.Sprintf("%.4f", pt.MeanGoldenAccuracy()),
			fmt.Sprintf("%.4f", pt.MeanPreAccuracy()),
			fmt.Sprintf("%.4f", pt.MeanPostAccuracy()),
		)
	}
	return t
}

// Figure4 reproduces the variation sweep for one architecture: test escape
// and overkill of every method over the σ axis. It returns the two figures
// (escape, overkill).
func (r *Runner) Figure4(arch snn.Arch) (*report.Figure, *report.Figure) {
	x := make([]float64, len(r.cfg.SigmaFractions))
	copy(x, r.cfg.SigmaFractions)
	escape := report.NewFigure(
		fmt.Sprintf("Fig. 4: test escape, %s model", arch), "sigma/theta", "test escape %", x)
	overkill := report.NewFigure(
		fmt.Sprintf("Fig. 4: overkill, %s model", arch), "sigma/theta", "overkill %", x)

	faults := tester.SampleFaults(arch, fault.Kinds(), r.cfg.EscapeSample, r.cfg.Seed+23)
	for _, m := range Methods() {
		ts := r.MergedSuite(arch, m, true)
		tol := 1
		if m == Proposed {
			tol = 0
		} else {
			ts = capItems(ts, r.cfg.BaselineItemCap)
		}
		ate := withTolerance(tester.New(ts, nil), tol)
		var esc, ok []float64
		for i, frac := range r.cfg.SigmaFractions {
			vary := variation.OfTheta(frac, r.params.Theta)
			e, errs := ate.MeasureEscape(faults, r.values, vary, r.cfg.Seed+uint64(i)*7+31)
			if len(errs) > 0 {
				//lint:ignore no-panic the experiment harness aborts loudly; the sample is drawn from the universe, so an error is a harness bug
				panic(fmt.Sprintf("experiments: Fig. 4 escape campaign: %v", errs[0]))
			}
			o := ate.MeasureOverkill(r.cfg.GoodChips, vary, r.cfg.Seed+uint64(i)*7+37)
			esc = append(esc, e)
			ok = append(ok, o)
			r.progress("%v %v σ=%.3gθ: escape %.2f%%, overkill %.2f%%", arch, m, frac, e, o)
		}
		escape.AddSeries(m.String(), esc)
		overkill.AddSeries(m.String(), ok)
	}
	return escape, overkill
}
