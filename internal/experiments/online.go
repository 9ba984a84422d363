package experiments

import (
	"context"
	"fmt"

	"neurotest/internal/apptest"
	"neurotest/internal/fault"
	"neurotest/internal/online"
	"neurotest/internal/snn"
	"neurotest/internal/tester"
	"neurotest/internal/unreliable"
)

// OnlinePoint is one cell of the in-field monitoring sweep: detection and
// false-positive behaviour of the online drift monitor over one (fault
// model, activation probability, detector threshold) combination.
type OnlinePoint struct {
	// Model names the intermittence regime: "intermittent" (memoryless) or
	// "burst" (Markov bursts, persistence 0.85).
	Model string
	// P is the fault-activation probability.
	P float64
	// Threshold is the CUSUM alarm level h; the paired instantaneous
	// z-threshold is h/2, so one knob sweeps both detectors.
	Threshold float64
	// Detection is the percentage of faulty fielded chips whose monitor
	// alarmed within the window.
	Detection float64
	// FalsePositive is the percentage of defect-free chips that alarmed.
	FalsePositive float64
	// Latency is the mean observations-to-alarm over alarmed chips.
	Latency float64
	// Confirmed is the percentage of faulty chips escalated AND binned Fail
	// by the structural retest — the end-to-end field-return rate.
	Confirmed float64
	// Quarantined is the percentage of faulty chips whose escalation ran
	// out of retest budget.
	Quarantined float64
}

// onlineClusterSize matches the service's defect model: a faulty fielded
// die carries a small cluster of sampled faults, because in-field failures
// arrive in clusters (a marginal via, a damaged rail) and cluster-level
// drift is what a distribution monitor is built to see.
const onlineClusterSize = 3

// OnlineSweep measures the in-field online monitor: a synthetic application
// workload is trained onto arch, its golden per-layer spike statistics are
// captured once, and then faulty and defect-free chip populations live
// through the full field lifecycle (monitor → alarm → structural retest)
// for every (intermittence model, activation probability, threshold)
// combination, all observed through the given readout channel. The sweep
// is a deterministic function of the config seed.
func (r *Runner) OnlineSweep(arch snn.Arch, readout unreliable.Readout) []OnlinePoint {
	merged := r.MergedSuite(arch, Proposed, false)
	ate := tester.New(merged, nil)

	ds, cl, err := apptest.Workload(arch, r.params, 64, r.cfg.Seed)
	if err != nil {
		//lint:ignore no-panic the experiment harness aborts loudly; a workload error here is a harness bug
		panic(fmt.Sprintf("experiments: online workload: %v", err))
	}
	golden, err := online.CaptureGolden(cl.Net, ds, cl.Timesteps)
	if err != nil {
		//lint:ignore no-panic the experiment harness aborts loudly
		panic(fmt.Sprintf("experiments: golden capture: %v", err))
	}

	faults := tester.SampleFaults(arch, fault.Kinds(), r.cfg.EscapeSample, r.cfg.Seed+41)

	models := []struct {
		name  string
		burst bool
	}{{"intermittent", false}, {"burst", true}}

	var out []OnlinePoint
	for mi, m := range models {
		for pi, p := range r.cfg.OnlineProbs {
			for hi, h := range r.cfg.OnlineThresholds {
				prof := unreliable.Profile{
					Intermittence: unreliable.Intermittence{P: p, Burst: m.burst, Persist: 0.85},
					Readout:       readout,
				}
				opt := online.FieldOptions{
					Window:   r.cfg.OnlineWindow,
					Detector: online.Config{ZThreshold: h / 2, CUSUMThreshold: h},
					Policy:   tester.RetestPolicy{MaxRetests: 3, Vote: true},
				}
				base := r.cfg.Seed + uint64(mi)*31 + uint64(pi)*1009 + uint64(hi)*9176
				// Faulty and defect-free populations are tallied apart so
				// the faulty binning rates cannot be diluted by escalated
				// false alarms.
				var fstats, gstats online.FieldStats
				run := func(stats *online.FieldStats, i int, mods *snn.Modifiers, salt uint64) {
					chip := online.FieldChip{
						Index:   i,
						Mods:    mods,
						Profile: prof,
						Seed:    base + salt + uint64(i)*2654435761,
					}
					rep, err := online.RunField(context.Background(), ate, golden, cl.Net, ds, chip, opt)
					if err != nil {
						//lint:ignore no-panic the experiment harness aborts loudly
						panic(fmt.Sprintf("experiments: online field episode: %v", err))
					}
					stats.Add(rep, mods != nil)
				}
				for i := 0; i < r.cfg.OnlineFaults; i++ {
					_, defect := tester.ClusterDefect(faults, r.values, i, onlineClusterSize)
					run(&fstats, i, defect, 1)
				}
				for i := 0; i < r.cfg.OnlineChips; i++ {
					run(&gstats, i, nil, 2)
				}
				pt := OnlinePoint{
					Model:         m.name,
					P:             p,
					Threshold:     h,
					Detection:     fstats.DetectionRate(),
					FalsePositive: gstats.FalseAlarmRate(),
					Latency:       fstats.MeanDetectionLatency(),
				}
				if fstats.Faulty > 0 {
					pt.Confirmed = 100 * float64(fstats.Fail) / float64(fstats.Faulty)
					pt.Quarantined = 100 * float64(fstats.Quarantine) / float64(fstats.Faulty)
				}
				r.progress("%v online %s p=%g h=%g: detect %.2f%%, fp %.2f%%, latency %.1f",
					arch, m.name, p, h, pt.Detection, pt.FalsePositive, pt.Latency)
				out = append(out, pt)
			}
		}
	}
	return out
}
