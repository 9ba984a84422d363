// Command experiments regenerates the tables and figures of the paper's
// evaluation section. Without flags it runs everything at full scale (can
// take tens of minutes on one core); -quick scales the populations down to
// a couple of minutes for smoke runs.
//
// Usage:
//
//	experiments [-quick] [-table 3|5|6|ratio|online|repair] [-figure 4] [-model 4|5]
//	            [-csv dir] [-seed N] [-trace file] [-v]
//
// With no selection flags, all tables and both figures are produced; the
// in-field monitoring sweep (-table online) only runs when selected, since
// it measures the online monitor rather than a paper artefact.
// -trace records one span per regenerated table/figure and writes them as
// NDJSON when the run finishes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"neurotest/internal/experiments"
	"neurotest/internal/faultsim"
	"neurotest/internal/obs"
	"neurotest/internal/report"
	"neurotest/internal/snn"
	"neurotest/internal/unreliable"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "scaled-down populations for fast smoke runs")
		table    = flag.String("table", "", "regenerate one table: 3, 5, 6, ratio, online or repair (default: all paper tables)")
		figure   = flag.String("figure", "", "regenerate one figure: 4 (default: all)")
		model    = flag.String("model", "", "restrict to one model: 4 or 5 (default: both)")
		csvDir   = flag.String("csv", "", "also write figure series as CSV files into this directory")
		seed     = flag.Uint64("seed", 0, "override the experiment seed")
		traceOut = flag.String("trace", "", "write per-table/figure phase spans to this file as NDJSON")
		verbose  = flag.Bool("v", false, "print per-campaign progress")
	)
	flag.Parse()

	cfg := experiments.Config{}.Normalize()
	if *quick {
		cfg = experiments.Quick()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	runner := experiments.NewRunner(cfg)
	if *verbose {
		runner.Progress = func(s string) { fmt.Fprintf(os.Stderr, "  .. %s\n", s) }
	}

	arches := experiments.PaperArches()
	switch *model {
	case "4":
		arches = arches[:1]
	case "5":
		arches = arches[1:]
	case "":
	default:
		fmt.Fprintf(os.Stderr, "unknown -model %q (want 4 or 5)\n", *model)
		os.Exit(2)
	}

	wantTable := func(name string) bool {
		return (*table == "" && *figure == "") || *table == name
	}
	wantFigure := func(name string) bool {
		return (*table == "" && *figure == "") || *figure == name
	}

	// With -trace, every regenerated artefact runs under its own trace
	// root, recording how long each table/figure took. The trace ID derives
	// from the artefact name and seed, so identical runs produce identical
	// trace and span IDs.
	var rec *obs.Recorder
	if *traceOut != "" {
		rec = obs.NewRecorder(0)
	}
	phase := func(name string, run func(ctx context.Context)) {
		key := fmt.Sprintf("experiments|%s|seed=%d|quick=%v", name, cfg.Seed, *quick)
		ctx, root := obs.StartTrace(context.Background(), rec, obs.TraceID(key), name)
		run(ctx)
		root.End()
	}

	start := time.Now()
	simBefore := faultsim.Snapshot()
	if wantTable("3") {
		phase("table3", func(context.Context) {
			runner.Table3().Render(os.Stdout)
			fmt.Println()
		})
	}
	if wantTable("5") {
		for _, arch := range arches {
			phase(fmt.Sprintf("table5-%v", arch), func(context.Context) {
				t, _ := runner.Table5(arch)
				t.Render(os.Stdout)
				fmt.Println()
			})
		}
	}
	if wantTable("6") {
		for _, arch := range arches {
			phase(fmt.Sprintf("table6-%v", arch), func(context.Context) {
				t, _ := runner.Table6(arch)
				t.Render(os.Stdout)
				fmt.Println()
			})
		}
	}
	if wantTable("ratio") {
		phase("ratio", func(context.Context) {
			runner.RatioTable().Render(os.Stdout)
			fmt.Println()
		})
	}
	// The online sweep is opt-in (-table online): it exercises the in-field
	// monitor on a field-sized model, not one of the paper's tables.
	if *table == "online" {
		phase("online", func(context.Context) {
			arch := snn.Arch{24, 16, 8, 4}
			readout := unreliable.Readout{JitterP: 0.02, JitterMag: 1, DropP: 0.01}
			points := runner.OnlineSweep(arch, readout)
			experiments.OnlineTable(arch, readout.String(), points).Render(os.Stdout)
			fmt.Println()
		})
	}
	// The repair sweep is opt-in too (-table repair): it measures the closed
	// repair loop's recovered yield on both paper models.
	if *table == "repair" {
		for _, arch := range arches {
			phase(fmt.Sprintf("repair-%v", arch), func(context.Context) {
				points := runner.RepairSweep(arch)
				experiments.RepairTable(arch, runner.Config().RepairSpares, points).Render(os.Stdout)
				fmt.Println()
			})
		}
	}
	if wantFigure("4") {
		for _, arch := range arches {
			phase(fmt.Sprintf("figure4-%v", arch), func(context.Context) {
				escape, overkill := runner.Figure4(arch)
				escape.RenderASCII(os.Stdout)
				fmt.Println()
				overkill.RenderASCII(os.Stdout)
				fmt.Println()
				if *csvDir != "" {
					writeCSV(*csvDir, fmt.Sprintf("fig4_escape_%s.csv", arch), escape)
					writeCSV(*csvDir, fmt.Sprintf("fig4_overkill_%s.csv", arch), overkill)
					writeSVG(*csvDir, fmt.Sprintf("fig4_escape_%s.svg", arch), escape)
					writeSVG(*csvDir, fmt.Sprintf("fig4_overkill_%s.svg", arch), overkill)
				}
			})
		}
	}
	if rec != nil {
		if err := writeTrace(*traceOut, rec); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *traceOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", rec.Len(), *traceOut)
	}
	// Fault-simulation efficiency for the whole run: how many shared
	// goldens were built (one per campaign, independent of worker count),
	// how many equivalence classes the evaluated faults collapsed into, and
	// how well the downstream memo amortized the representatives'
	// re-simulation.
	sim := faultsim.Snapshot()
	sim.GoldenBuilds -= simBefore.GoldenBuilds
	sim.FaultsSimulated -= simBefore.FaultsSimulated
	sim.Classes -= simBefore.Classes
	sim.MemoHits -= simBefore.MemoHits
	sim.MemoMisses -= simBefore.MemoMisses
	if sim.FaultsSimulated > 0 {
		fmt.Fprintf(os.Stderr, "faultsim: %d goldens built, %d faults evaluated in %d classes, memo hit ratio %.1f%%\n",
			sim.GoldenBuilds, sim.FaultsSimulated, sim.Classes, 100*sim.HitRatio())
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Second))
}

// writeTrace dumps a recorder's spans to path as NDJSON.
func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteNDJSON(f); err != nil {
		//lint:ignore unchecked-error the write error already reports the failure; close is cleanup on the error path
		f.Close()
		return err
	}
	return f.Close()
}

func writeCSV(dir, name string, f *report.Figure) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "creating %s: %v\n", dir, err)
		os.Exit(1)
	}
	path := filepath.Join(dir, name)
	fh, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "creating %s: %v\n", path, err)
		os.Exit(1)
	}
	defer fh.Close()
	f.RenderCSV(fh)
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func writeSVG(dir, name string, f *report.Figure) {
	path := filepath.Join(dir, name)
	fh, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "creating %s: %v\n", path, err)
		os.Exit(1)
	}
	defer fh.Close()
	f.RenderSVG(fh)
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
