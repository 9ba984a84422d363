package baseline

import (
	"context"
	"math"
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/snn"
)

func smallOptions(seed uint64) Options {
	params := snn.DefaultParams()
	o := Options{
		Arch:              snn.Arch{8, 6, 4},
		Params:            params,
		Values:            fault.PaperValues(params.Theta),
		Seed:              seed,
		NumConfigs:        4,
		PatternsPerConfig: 30,
		FaultSample:       200,
	}
	return o
}

func TestGenerateProducesValidSet(t *testing.T) {
	for _, kind := range fault.Kinds() {
		ts, err := Generate("atcpg", kind, smallOptions(1))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := ts.Validate(); err != nil {
			t.Errorf("%v: invalid set: %v", kind, err)
		}
		if ts.NumPatterns() == 0 {
			t.Errorf("%v: empty test set", kind)
		}
		if ts.NumConfigs() > 4 {
			t.Errorf("%v: %d configs exceed candidates", kind, ts.NumConfigs())
		}
	}
}

func TestRepetitionInStatisticalRange(t *testing.T) {
	ts, err := Generate("atcpg", fault.SWF, smallOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	rep := ts.MaxRepeat()
	if rep < 50 || rep > 2000 {
		t.Errorf("ATCPG repetition %d outside [50, 2000]", rep)
	}
	if rep == 1 {
		t.Errorf("statistical baseline claims single-application testing")
	}
	if ts.TestLength() != ts.NumPatterns()*rep {
		t.Errorf("test length %d != patterns %d × repetition %d", ts.TestLength(), ts.NumPatterns(), rep)
	}
}

func TestCompressionProtocol(t *testing.T) {
	o := CompressionOptions(snn.Arch{8, 6, 4}, snn.DefaultParams(), fault.PaperValues(0.5), 3)
	o.PatternsPerConfig = 40
	o.FaultSample = 200
	ts, err := Generate("compression", fault.SWF, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.MaxRepeat(); got != 1000 {
		t.Errorf("compression repetition = %d, protocol fixes 1000", got)
	}
	if ts.NumConfigs() > 3 {
		t.Errorf("compression used %d configs, candidates were 3", ts.NumConfigs())
	}
	// Compressible alphabet: every weight lies on the 65-entry codebook
	// (step 2·ωmax/64).
	step := 20.0 / 64
	for ci, cfg := range ts.Configs {
		for b := range cfg.W {
			for _, w := range cfg.W[b] {
				lv := w / step
				if diff := lv - math.Round(lv); math.Abs(diff) > 1e-9 {
					t.Fatalf("config %d holds non-codeword weight %g", ci, w)
				}
			}
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a, err := Generate("atcpg", fault.ESF, smallOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("atcpg", fault.ESF, smallOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumPatterns() != b.NumPatterns() || a.NumConfigs() != b.NumConfigs() {
		t.Fatalf("same seed, different shapes: %d/%d vs %d/%d",
			a.NumConfigs(), a.NumPatterns(), b.NumConfigs(), b.NumPatterns())
	}
	for i := range a.Items {
		for j := range a.Items[i].Pattern {
			if a.Items[i].Pattern[j] != b.Items[i].Pattern[j] {
				t.Fatalf("same seed, different pattern at item %d", i)
			}
		}
	}
}

func TestSelectedItemsActuallyDetect(t *testing.T) {
	// Every selected item must detect at least one sampled fault — greedy
	// set cover never keeps useless items.
	opt := smallOptions(11)
	ts, err := Generate("atcpg", fault.SWF, opt)
	if err != nil {
		t.Fatal(err)
	}
	universe := fault.Universe(opt.Arch, fault.SWF)
	rows, err := faultsim.NewGolden(ts, nil).NewEvaluator(opt.Values).DetectsMatrix(context.Background(), universe)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts.Items {
		any := false
		for _, row := range rows {
			if row[i/64]&(1<<uint(i%64)) != 0 {
				any = true
				break
			}
		}
		if !any {
			t.Errorf("item %d detects nothing", i)
		}
	}
}

func TestBaselineCoverageBelowDeterministic(t *testing.T) {
	// The statistical baseline should cover a decent fraction but is not
	// expected to reach the deterministic method's guaranteed 100 % on the
	// harder models; at minimum it must detect something.
	opt := smallOptions(13)
	for _, kind := range []fault.Kind{fault.NASF, fault.SWF} {
		ts, err := Generate("atcpg", kind, opt)
		if err != nil {
			t.Fatal(err)
		}
		universe := fault.Universe(opt.Arch, kind)
		got, err := faultsim.NewGolden(ts, nil).NewEvaluator(opt.Values).Coverage(context.Background(), universe)
		if err != nil {
			t.Fatal(err)
		}
		if got == 0 {
			t.Errorf("%v: baseline detects nothing", kind)
		}
	}
}

func TestGenerateRejectsBadOptions(t *testing.T) {
	o := smallOptions(1)
	o.Arch = snn.Arch{5}
	if _, err := Generate("x", fault.SWF, o); err == nil {
		t.Errorf("bad arch accepted")
	}
	o = smallOptions(1)
	o.Params = snn.Params{Theta: -1, Leak: 0.5, WMax: 10}
	if _, err := Generate("x", fault.SWF, o); err == nil {
		t.Errorf("bad params accepted")
	}
}

func TestDefaultOptionConstructors(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	a := ATCPGOptions(arch, snn.DefaultParams(), fault.PaperValues(0.5), 1)
	if a.NumConfigs == 0 || a.PatternsPerConfig == 0 || a.Density == 0 || a.Timesteps == 0 {
		t.Errorf("ATCPG defaults missing: %+v", a)
	}
	c := CompressionOptions(arch, snn.DefaultParams(), fault.PaperValues(0.5), 1)
	if c.FixedRepeat != 1000 || c.WeightLevels != 65 {
		t.Errorf("compression defaults wrong: %+v", c)
	}
	if c.NumConfigs >= a.NumConfigs {
		t.Errorf("compression should use fewer configs than ATCPG")
	}
}
