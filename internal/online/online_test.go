package online

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"neurotest/internal/apptest"
	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
	"neurotest/internal/tester"
	"neurotest/internal/unreliable"
)

// goldenOf builds a detector-only reference with one channel per entry.
func goldenOf(mean, std []float64) *Golden {
	return &Golden{Arch: snn.Arch{4, len(mean) + 1}, Timesteps: 8, Samples: 16, Mean: mean, Std: std}
}

// workload is the shared tiny application substrate of the integration
// tests: a trained classifier, its training set and the golden reference.
func workload(t *testing.T, arch snn.Arch, seed uint64) (*apptest.Classifier, *apptest.Dataset, *Golden) {
	t.Helper()
	ds, err := apptest.Synthetic(arch.Inputs(), arch.Outputs(), 6, 0.35, 0.05, seed)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := apptest.Train(ds, apptest.TrainOptions{Arch: arch, Params: snn.DefaultParams(), Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := CaptureGolden(cl.Net, ds, cl.Timesteps)
	if err != nil {
		t.Fatal(err)
	}
	return cl, ds, g
}

// suiteOf builds the structural escalation program for arch.
func suiteOf(t *testing.T, arch snn.Arch) (*core.Generator, *pattern.TestSet) {
	t.Helper()
	params := snn.DefaultParams()
	g, err := core.NewGenerator(core.Options{
		Arch: arch, Params: params, Values: fault.PaperValues(params.Theta), Regime: core.NoVariation(),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, merged := g.GenerateAll()
	return g, merged
}

func TestCaptureGoldenShapeAndDeterminism(t *testing.T) {
	arch := snn.Arch{12, 8, 4}
	_, ds, g := workload(t, arch, 11)
	if g.Channels() != arch.Layers()-1 {
		t.Fatalf("channels = %d, want %d", g.Channels(), arch.Layers()-1)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("valid golden rejected: %v", err)
	}
	cl2, err := apptest.Train(ds, apptest.TrainOptions{Arch: arch, Params: snn.DefaultParams(), Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := CaptureGolden(cl2.Net, ds, cl2.Timesteps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, g2) {
		t.Errorf("golden capture not reproducible:\n%+v\n%+v", g, g2)
	}
	// Spike counts are non-negative, so means must be too.
	for i, m := range g.Mean {
		if m < 0 || g.Std[i] < 0 {
			t.Errorf("channel %d: mean %g, std %g", i, m, g.Std[i])
		}
	}
}

func TestCaptureGoldenRejectsBadInputs(t *testing.T) {
	arch := snn.Arch{12, 8, 4}
	cl, ds, _ := workload(t, arch, 13)
	if _, err := CaptureGolden(nil, ds, 8); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := CaptureGolden(cl.Net, &apptest.Dataset{Inputs: 12}, 8); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := CaptureGolden(cl.Net, ds, 0); err == nil {
		t.Error("zero timesteps accepted")
	}
	if _, err := CaptureGolden(cl.Net, ds, snn.MaxTimesteps+1); err == nil {
		t.Error("oversized window accepted")
	}
	other, err := apptest.Synthetic(6, 2, 4, 0.5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CaptureGolden(cl.Net, other, 8); err == nil {
		t.Error("mismatched workload width accepted")
	}
}

func TestGoldenValidate(t *testing.T) {
	bad := []*Golden{
		nil,
		{},
		goldenOf([]float64{1}, []float64{1, 2}),
		{Arch: snn.Arch{2, 2}, Timesteps: 0, Samples: 5, Mean: []float64{1}, Std: []float64{1}},
		{Arch: snn.Arch{2, 2}, Timesteps: 8, Samples: 1, Mean: []float64{1}, Std: []float64{1}},
		goldenOf([]float64{math.NaN()}, []float64{1}),
		goldenOf([]float64{1}, []float64{math.Inf(1)}),
		goldenOf([]float64{1}, []float64{-1}),
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: bad golden %+v accepted", i, g)
		}
	}
}

func TestConfigNormalizeAndValidate(t *testing.T) {
	d := Config{}.Normalize()
	if !reflect.DeepEqual(d, DefaultConfig()) {
		t.Errorf("zero config normalized to %+v, want defaults %+v", d, DefaultConfig())
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	neg := Config{WarmUp: -5}.Normalize()
	if neg.WarmUp != 0 {
		t.Errorf("negative warm-up normalized to %d, want 0", neg.WarmUp)
	}
	bad := []Config{
		{ZThreshold: math.NaN(), CUSUMSlack: 0.5, CUSUMThreshold: 12, MinStd: 0.5},
		{ZThreshold: -3, CUSUMSlack: 0.5, CUSUMThreshold: 12, MinStd: 0.5},
		{ZThreshold: 6, CUSUMSlack: math.Inf(1), CUSUMThreshold: 12, MinStd: 0.5},
		{ZThreshold: 6, CUSUMSlack: -0.5, CUSUMThreshold: 12, MinStd: 0.5},
		{ZThreshold: 6, CUSUMSlack: 0.5, CUSUMThreshold: math.NaN(), MinStd: 0.5},
		{ZThreshold: 6, CUSUMSlack: 0.5, CUSUMThreshold: 12, MinStd: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: bad config %+v accepted", i, c)
		}
	}
}

func TestDetectorSilentOnGoldenStream(t *testing.T) {
	g := goldenOf([]float64{10, 40}, []float64{0, 3})
	det, err := NewDetector(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		dec, err := det.Observe([]int{10, 40})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Alarmed {
			t.Fatalf("alarm on the golden stream at observation %d: %+v", i+1, dec)
		}
	}
}

func TestDetectorZAlarmAfterWarmUp(t *testing.T) {
	g := goldenOf([]float64{10}, []float64{1})
	det, err := NewDetector(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	warm := det.cfg.WarmUp
	for i := 0; i < warm; i++ {
		// A huge shift inside the warm-up window must stay silent.
		dec, err := det.Observe([]int{100})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Alarmed {
			t.Fatalf("alarmed during warm-up at observation %d", i+1)
		}
	}
	dec, err := det.Observe([]int{100})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Alarmed || dec.Detector != "z" || dec.Channel != 0 {
		t.Fatalf("want z alarm on channel 0 at first armed observation, got %+v", dec)
	}
	if dec.Observation != warm+1 {
		t.Errorf("alarm at observation %d, want %d", dec.Observation, warm+1)
	}
}

func TestDetectorCUSUMCatchesSmallPersistentShift(t *testing.T) {
	// A +1.5σ shift is far below the z threshold (6) but accumulates at
	// (1.5 - slack) per observation; it must eventually alarm via CUSUM.
	g := goldenOf([]float64{10}, []float64{2})
	det, err := NewDetector(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	alarmed := false
	for i := 0; i < 64 && !alarmed; i++ {
		dec, err := det.Observe([]int{13})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Alarmed {
			alarmed = true
			if dec.Detector != "cusum" {
				t.Fatalf("want cusum alarm, got %+v", dec)
			}
		}
	}
	if !alarmed {
		t.Fatal("persistent +1.5σ shift never alarmed in 64 observations")
	}
	// The downward drift must trip the two-sided CUSUM as well.
	det2, err := NewDetector(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	alarmed = false
	for i := 0; i < 64 && !alarmed; i++ {
		dec, err := det2.Observe([]int{7})
		if err != nil {
			t.Fatal(err)
		}
		alarmed = dec.Alarmed
	}
	if !alarmed {
		t.Fatal("persistent -1.5σ shift never alarmed in 64 observations")
	}
}

func TestDetectorMinStdFloorsDegenerateChannels(t *testing.T) {
	// Golden σ = 0 (workload-invariant layer): a one-spike jitter must not
	// produce an infinite z or an instant alarm.
	g := goldenOf([]float64{10}, []float64{0})
	det, err := NewDetector(g, Config{WarmUp: -1})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := det.Observe([]int{11})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Alarmed {
		t.Fatalf("one-spike jitter on a degenerate channel alarmed instantly: %+v", dec)
	}
	if math.IsInf(dec.Z, 0) || math.IsNaN(dec.Z) {
		t.Fatalf("non-finite z: %+v", dec)
	}
}

func TestDetectorWidthMismatch(t *testing.T) {
	det, err := NewDetector(goldenOf([]float64{10, 20}, []float64{1, 1}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Observe([]int{10}); err == nil {
		t.Error("width mismatch accepted")
	}
}

// clusterOf builds the defect of a badly damaged die: a cluster of
// always-spike faults across layer-1 neurons. Single subtle faults are
// deliberately not used here — their drift can hide inside workload
// variance (that coverage story is measured by the online experiment, not
// asserted by unit tests).
func clusterOf(t *testing.T, values fault.Values, indices ...int) *snn.Modifiers {
	t.Helper()
	mods := make([]*snn.Modifiers, 0, len(indices))
	for _, i := range indices {
		f := fault.NewNeuronFault(fault.NASF, snn.NeuronID{Layer: 1, Index: i})
		mods = append(mods, f.Modifiers(values))
	}
	m := snn.MergeModifiers(mods...)
	if m == nil {
		t.Fatal("empty cluster")
	}
	return m
}

func TestMonitorAlarmsOnFaultyChipOnly(t *testing.T) {
	arch := snn.Arch{12, 8, 4}
	cl, ds, g := workload(t, arch, 21)
	values := fault.PaperValues(snn.DefaultParams().Theta)
	mods := clusterOf(t, values, 1, 2, 3)
	prof := unreliable.Reliable()

	run := func(mods *snn.Modifiers) *Alarm {
		t.Helper()
		mon, err := NewMonitor(g, Config{}, cl.Net, mods, prof, 5)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := ds.Stream(6)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 256; i++ {
			a, err := mon.Step(stream.Next().Input)
			if err != nil {
				t.Fatal(err)
			}
			if a != nil {
				return a
			}
		}
		return nil
	}

	if a := run(nil); a != nil {
		t.Fatalf("defect-free chip alarmed: %v", a)
	}
	a := run(mods)
	if a == nil {
		t.Fatal("hyperactive neuron fault never alarmed in 256 observations")
	}
	if a.Layer < 1 || a.Layer >= arch.Layers() {
		t.Errorf("alarm names layer %d outside [1,%d)", a.Layer, arch.Layers())
	}
	if !strings.Contains(a.String(), "drift on layer") {
		t.Errorf("alarm string %q", a.String())
	}
}

func TestMonitorRejectsBadInputs(t *testing.T) {
	arch := snn.Arch{12, 8, 4}
	cl, _, g := workload(t, arch, 31)
	if _, err := NewMonitor(g, Config{}, nil, nil, unreliable.Reliable(), 1); err == nil {
		t.Error("nil network accepted")
	}
	bad := unreliable.Profile{Intermittence: unreliable.Intermittence{P: math.NaN()}}
	if _, err := NewMonitor(g, Config{}, cl.Net, nil, bad, 1); err == nil {
		t.Error("NaN profile accepted")
	}
	narrow := goldenOf([]float64{1}, []float64{1})
	if _, err := NewMonitor(narrow, Config{}, cl.Net, nil, unreliable.Reliable(), 1); err == nil {
		t.Error("channel-count mismatch accepted")
	}
}

func TestRunFieldLifecycle(t *testing.T) {
	arch := snn.Arch{12, 8, 4}
	cl, ds, g := workload(t, arch, 41)
	gen, merged := suiteOf(t, arch)
	ate := tester.New(merged, nil)
	mods := clusterOf(t, gen.Options().Values, 1, 2, 3)
	opt := FieldOptions{Window: 256, Policy: tester.RetestPolicy{MaxRetests: 3, Vote: true}}

	var stats FieldStats

	good := FieldChip{Index: 0, Profile: unreliable.Reliable(), Seed: 100}
	rep, err := RunField(context.Background(), ate, g, cl.Net, ds, good, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Healthy || rep.Alarm != nil || rep.Retest != nil {
		t.Fatalf("good chip: %+v", rep)
	}
	stats.Add(rep, false)

	faulty := FieldChip{Index: 1, Mods: mods, Profile: unreliable.Reliable(), Seed: 101}
	rep, err = RunField(context.Background(), ate, g, cl.Net, ds, faulty, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Alarm == nil || rep.Retest == nil {
		t.Fatalf("faulty chip did not escalate: %+v", rep)
	}
	// A permanently-active HSF must be confirmed by the structural retest.
	if rep.Verdict != Fail {
		t.Fatalf("faulty chip verdict %v (retest %v), want FAIL", rep.Verdict, rep.Retest)
	}
	stats.Add(rep, true)

	if stats.Chips != 2 || stats.Alarms != 1 || stats.FalseAlarms != 0 {
		t.Errorf("stats %+v", stats)
	}
	if stats.DetectionRate() != 100 || stats.FalseAlarmRate() != 0 {
		t.Errorf("rates: detection %g, false alarm %g", stats.DetectionRate(), stats.FalseAlarmRate())
	}
	if stats.MeanDetectionLatency() != float64(rep.Alarm.Observation) {
		t.Errorf("latency %g, want %d", stats.MeanDetectionLatency(), rep.Alarm.Observation)
	}
}

func TestRunFieldDeterministicAcrossRuns(t *testing.T) {
	// Bit-reproducibility of the whole field lifecycle — the acceptance
	// criterion behind putting internal/online on the determinism path.
	// The race set runs this file too, so the property holds under -race.
	arch := snn.Arch{12, 8, 4}
	cl, ds, g := workload(t, arch, 51)
	gen, merged := suiteOf(t, arch)
	ate := tester.New(merged, nil)
	values := gen.Options().Values
	mods := fault.NewSynapseFault(fault.SWF, snn.SynapseID{Boundary: 0, Pre: 0, Post: 0}).Modifiers(values)
	prof := unreliable.Profile{
		Intermittence: unreliable.Intermittence{P: 0.3},
		Readout:       unreliable.Readout{JitterP: 0.05, JitterMag: 2, DropP: 0.02},
	}
	chip := FieldChip{Index: 2, Mods: mods, Profile: prof, Seed: 77}
	opt := FieldOptions{Window: 128, Policy: tester.RetestPolicy{MaxRetests: 3, Vote: true}}

	first, err := RunField(context.Background(), ate, g, cl.Net, ds, chip, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := RunField(context.Background(), ate, g, cl.Net, ds, chip, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged:\n%+v\n%+v", i, first, again)
		}
	}
}

func TestRunFieldDropsConsumeWindow(t *testing.T) {
	arch := snn.Arch{12, 8, 4}
	cl, ds, g := workload(t, arch, 61)
	_, merged := suiteOf(t, arch)
	ate := tester.New(merged, nil)
	// A readout channel that drops everything: the monitor must terminate
	// after the window with zero observations, not spin forever.
	prof := unreliable.Profile{
		Intermittence: unreliable.Always(),
		Readout:       unreliable.Readout{DropP: 0.999999},
	}
	chip := FieldChip{Index: 3, Profile: prof, Seed: 9}
	rep, err := RunField(context.Background(), ate, g, cl.Net, ds, chip, FieldOptions{Window: 32})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Observations+rep.Dropped != 32 {
		t.Errorf("window accounting: %d observed + %d dropped != 32", rep.Observations, rep.Dropped)
	}
	if rep.Verdict != Healthy {
		t.Errorf("all-drop chip verdict %v, want HEALTHY (no evidence)", rep.Verdict)
	}
}

func TestRunFieldCancellation(t *testing.T) {
	arch := snn.Arch{12, 8, 4}
	cl, ds, g := workload(t, arch, 71)
	_, merged := suiteOf(t, arch)
	ate := tester.New(merged, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunField(ctx, ate, g, cl.Net, ds, FieldChip{Profile: unreliable.Reliable()}, FieldOptions{})
	if err == nil {
		t.Fatal("cancelled context did not surface")
	}
}

func TestRunFieldRejectsBadOptions(t *testing.T) {
	arch := snn.Arch{12, 8, 4}
	cl, ds, g := workload(t, arch, 81)
	_, merged := suiteOf(t, arch)
	ate := tester.New(merged, nil)
	chip := FieldChip{Profile: unreliable.Reliable()}
	if _, err := RunField(context.Background(), nil, g, cl.Net, ds, chip, FieldOptions{}); err == nil {
		t.Error("nil ATE accepted")
	}
	if _, err := RunField(context.Background(), ate, g, cl.Net, ds, chip, FieldOptions{Window: -1}); err == nil {
		t.Error("negative window accepted")
	}
	nan := FieldChip{Profile: unreliable.Profile{Intermittence: unreliable.Intermittence{P: math.NaN()}}}
	if _, err := RunField(context.Background(), ate, g, cl.Net, ds, nan, FieldOptions{}); err == nil {
		t.Error("NaN profile accepted")
	}
}

func TestVerdictStrings(t *testing.T) {
	cases := map[Verdict]string{
		Healthy: "HEALTHY", Pass: "PASS", Fail: "FAIL", Quarantine: "QUARANTINE", Verdict(9): "Verdict(9)",
	}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
}
