package experiments

import (
	"context"
	"fmt"

	"neurotest/internal/fault"
	"neurotest/internal/repair"
	"neurotest/internal/snn"
	"neurotest/internal/tester"
)

// RepairPoint is one density cell of the repair sweep: what the closed
// test→diagnose→plan→reprogram→retest loop recovers from a die population
// carrying a fixed number of clustered faults each.
type RepairPoint struct {
	// Clusters is the number of sampled faults merged into each die's defect.
	Clusters int
	// Chips is the die population at this density.
	Chips int
	// Healthy / Repaired / Degraded / Unrepairable bin the loop verdicts.
	Healthy      int
	Repaired     int
	Degraded     int
	Unrepairable int
	// UnrepairedYield is the percentage of dies that would ship with no
	// repair capability at all (pre-repair structural test passes).
	UnrepairedYield float64
	// RecoveredYield is the percentage shipping after repair (Healthy or
	// Repaired verdicts).
	RecoveredYield float64
	// CellsRetired totals crossbar cells the plans retired or rewired.
	CellsRetired int
	// MeanGolden / MeanPre / MeanPost are the population's application
	// accuracies: fault-free baseline, defective, and post-repair.
	MeanGolden float64
	MeanPre    float64
	MeanPost   float64
}

// RepairSweep measures diagnosis-driven repair over injected fault density:
// one substrate (suite, dictionary, trained workload, spare-provisioned
// chip) per architecture, then for every density in cfg.RepairClusters a
// population of cfg.RepairChips dies each carrying that many sampled faults
// is pushed through the closed repair loop. The sweep is a deterministic
// function of the config seed.
func (r *Runner) RepairSweep(arch snn.Arch) []RepairPoint {
	merged := r.MergedSuite(arch, Proposed, false)
	universe := tester.SampleFaults(arch, fault.Kinds(), r.cfg.RepairSample, r.cfg.Seed+41)
	loop, err := repair.New(context.Background(), repair.Config{
		ATE:          tester.New(merged, nil),
		Values:       r.values,
		Universe:     universe,
		SpareAxons:   r.cfg.RepairSpares,
		SpareNeurons: r.cfg.RepairSpares,
		Seed:         r.cfg.Seed,
	})
	if err != nil {
		//lint:ignore no-panic the experiment harness aborts loudly; its inputs are compile-time constants
		panic(fmt.Sprintf("experiments: repair substrate for %v: %v", arch, err))
	}
	r.progress("%v repair substrate: %d-fault dictionary, golden accuracy %.4f",
		arch, len(universe), loop.GoldenAccuracy())

	var out []RepairPoint
	for _, clusters := range r.cfg.RepairClusters {
		pt := RepairPoint{Clusters: clusters, Chips: r.cfg.RepairChips}
		preShipped, shipped := 0, 0
		for i := 0; i < r.cfg.RepairChips; i++ {
			_, defect := tester.ClusterDefect(universe, r.values, i, clusters)
			rep, _, err := loop.Run(context.Background(), defect, nil)
			if err != nil {
				//lint:ignore no-panic the experiment harness aborts loudly
				panic(fmt.Sprintf("experiments: repair run %v/%d/%d: %v", arch, clusters, i, err))
			}
			switch rep.Verdict {
			case repair.Healthy:
				pt.Healthy++
			case repair.Repaired:
				pt.Repaired++
			case repair.Degraded:
				pt.Degraded++
			default:
				pt.Unrepairable++
			}
			if rep.PreFails == 0 {
				preShipped++
			}
			if rep.Verdict == repair.Healthy || rep.Verdict == repair.Repaired {
				shipped++
			}
			pt.CellsRetired += rep.CellsRetired
			pt.MeanGolden += rep.GoldenAccuracy
			pt.MeanPre += rep.PreAccuracy
			pt.MeanPost += rep.PostAccuracy
		}
		n := float64(pt.Chips)
		pt.UnrepairedYield = 100 * float64(preShipped) / n
		pt.RecoveredYield = 100 * float64(shipped) / n
		pt.MeanGolden /= n
		pt.MeanPre /= n
		pt.MeanPost /= n
		r.progress("%v repair clusters=%d: recovered %.1f%% (unrepaired %.1f%%), post accuracy %.4f",
			arch, clusters, pt.RecoveredYield, pt.UnrepairedYield, pt.MeanPost)
		out = append(out, pt)
	}
	return out
}
