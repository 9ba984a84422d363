package quant

import (
	"math"
	"testing"
	"testing/quick"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

func mustScheme(t *testing.T, bits int, gran Granularity) Scheme {
	t.Helper()
	s, err := NewScheme(bits, gran)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestQuantizerBasics pins the grid of one group: 8 bits give 2·127+1
// levels, grid points (the extremes and zero included) stay where they
// are, and values beyond the range saturate at the top level.
func TestQuantizerBasics(t *testing.T) {
	s := mustScheme(t, 8, PerNetwork)
	if got := s.halfLevels(); got != 127 {
		t.Errorf("halfLevels = %g, want 127 (255 levels)", got)
	}
	for _, tc := range []struct{ w, want float64 }{
		{10, 10}, {-10, -10}, {0, 0}, {50, 10}, {-50, -10},
	} {
		if got := s.snap(tc.w, 10); got != tc.want {
			t.Errorf("snap(%g) on a ±10 grid = %g, want %g", tc.w, got, tc.want)
		}
	}
}

func TestQuantizerErrors(t *testing.T) {
	for _, bits := range []int{1, 17} {
		if _, err := NewScheme(bits, PerChannel); err == nil {
			t.Errorf("bit width %d accepted", bits)
		}
	}
	if _, err := NewScheme(8, PerChannel); err != nil {
		t.Errorf("valid scheme rejected: %v", err)
	}
}

// TestQuantizeErrorBound is the property behind every snap: at each
// granularity a weight moves by at most half a step of its group's grid
// (step = group max |w| / (2^(Bits-1)-1)) and never leaves [-max, max].
func TestQuantizeErrorBound(t *testing.T) {
	f := func(seed uint64, granPick uint8) bool {
		gran := Granularity(int(granPick) % 3)
		s := mustScheme(t, 6, gran)
		net := snn.New(snn.Arch{4, 3, 2}, snn.DefaultParams())
		r := stats.NewRNG(seed)
		for b := range net.W {
			for i := range net.W[b] {
				net.W[b][i] = -10 + 20*r.Float64()
			}
		}
		q, worst := s.QuantizedClone(net)
		for b := range net.W {
			for i, w := range net.W[b] {
				maxAbs := groupMaxAbs(net, gran, b, i%net.Arch[b+1])
				e := math.Abs(q.W[b][i] - w)
				if e > maxAbs/s.halfLevels()/2+1e-12 || e > worst || math.Abs(q.W[b][i]) > maxAbs+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// groupMaxAbs is the calibration maximum of the group holding column col
// of boundary b under gran.
func groupMaxAbs(net *snn.Network, gran Granularity, b, col int) float64 {
	m := 0.0
	for bb := range net.W {
		if gran != PerNetwork && bb != b {
			continue
		}
		for i, w := range net.W[bb] {
			if gran == PerChannel && i%net.Arch[bb+1] != col {
				continue
			}
			m = math.Max(m, math.Abs(w))
		}
	}
	return m
}

func TestQuantizeNetworkInPlace(t *testing.T) {
	net := snn.New(snn.Arch{2, 2}, snn.DefaultParams())
	net.SetEntry(0, 0, 0, 3.33)
	net.SetEntry(0, 1, 0, 1)
	net.SetEntry(0, 1, 1, -7.77)
	s := mustScheme(t, 4, PerBoundary)
	step := 7.77 / s.halfLevels()
	worst := s.QuantizeNetwork(net)
	if worst > step/2+1e-12 {
		t.Errorf("worst error %g exceeds half step %g", worst, step/2)
	}
	for b := range net.W {
		for _, w := range net.W[b] {
			if lv := w / step; math.Abs(lv-math.Round(lv)) > 1e-9 {
				t.Errorf("weight %g not on grid", w)
			}
		}
	}
}

func TestSchemeString(t *testing.T) {
	s := mustScheme(t, 8, PerChannel)
	if got := s.String(); got != "8-bit per-channel" {
		t.Errorf("String = %q", got)
	}
	if PerNetwork.String() != "per-network" || PerBoundary.String() != "per-boundary" {
		t.Errorf("granularity strings wrong")
	}
	if Granularity(9).String() != "Granularity(9)" {
		t.Errorf("unknown granularity string")
	}
}

func TestSchemeMaxAbsCalibration(t *testing.T) {
	// The largest magnitude of each group must survive quantization exactly
	// (max-abs maps to the top code).
	net := snn.New(snn.Arch{3, 2, 2}, snn.DefaultParams())
	net.SetEntry(0, 0, 0, 0.275)
	net.SetEntry(0, 1, 1, -10)
	net.SetEntry(1, 0, 0, 0.725)
	for _, gran := range []Granularity{PerNetwork, PerBoundary, PerChannel} {
		s := mustScheme(t, 8, gran)
		c, _ := s.QuantizedClone(net)
		if got := c.Entry(0, 1, 1); got != -10 {
			t.Errorf("%v: max magnitude moved to %g", gran, got)
		}
	}
}

func TestPerChannelPreservesPaperLevels(t *testing.T) {
	// The key property behind the paper's 4-bit claim: a column holding
	// {v, 0} quantizes exactly at any width under per-channel scales,
	// because v is the column max.
	net := snn.New(snn.Arch{4, 2}, snn.DefaultParams())
	net.SetEntry(0, 0, 0, 0.275) // ω_pt of ESF
	net.SetEntry(0, 0, 1, 0.725) // ω_pt of HSF
	// column 0: {0.275, 0, 0, 0}; column 1: {0.725, 0, 0, 0}
	s := mustScheme(t, 4, PerChannel)
	c, worst := s.QuantizedClone(net)
	if worst > 1e-12 {
		t.Errorf("worst snap error %g, want exact", worst)
	}
	if c.Entry(0, 0, 0) != 0.275 || c.Entry(0, 0, 1) != 0.725 {
		t.Errorf("paper levels moved: %g %g", c.Entry(0, 0, 0), c.Entry(0, 0, 1))
	}
}

func TestPerBoundary4BitBreaksMixedColumns(t *testing.T) {
	// The counter-case: a boundary mixing 0.725 with ±10 cannot hold 0.725
	// on a 4-bit shared grid (step 10/7 ≈ 1.43).
	net := snn.New(snn.Arch{2, 2}, snn.DefaultParams())
	net.SetEntry(0, 0, 0, 0.725)
	net.SetEntry(0, 1, 1, -10)
	s := mustScheme(t, 4, PerBoundary)
	c, _ := s.QuantizedClone(net)
	got := c.Entry(0, 0, 0)
	if got == 0.725 {
		t.Errorf("0.725 survived a 4-bit shared grid; expected snap to 0 or 10/7")
	}
	if got != 0 && math.Abs(got-10.0/7) > 1e-9 {
		t.Errorf("unexpected snap target %g", got)
	}
}

func TestSchemeZeroGroup(t *testing.T) {
	// An all-zero column/boundary/network quantizes to all zeros without
	// dividing by zero.
	net := snn.New(snn.Arch{2, 2}, snn.DefaultParams())
	for _, gran := range []Granularity{PerNetwork, PerBoundary, PerChannel} {
		s := mustScheme(t, 8, gran)
		c, worst := s.QuantizedClone(net)
		if worst != 0 {
			t.Errorf("%v: worst error %g on zero network", gran, worst)
		}
		for b := range c.W {
			for _, w := range c.W[b] {
				if w != 0 {
					t.Errorf("%v: zero network gained weight %g", gran, w)
				}
			}
		}
	}
}

func TestSchemeIdempotentQuick(t *testing.T) {
	f := func(seed uint64, granPick uint8) bool {
		gran := Granularity(int(granPick) % 3)
		s, err := NewScheme(6, gran)
		if err != nil {
			return false
		}
		net := snn.New(snn.Arch{3, 3, 2}, snn.DefaultParams())
		r := stats.NewRNG(seed)
		for b := range net.W {
			for i := range net.W[b] {
				net.W[b][i] = -10 + 20*r.Float64()
			}
		}
		once, _ := s.QuantizedClone(net)
		twice, worst := s.QuantizedClone(once)
		if worst > 1e-9 {
			return false
		}
		for b := range once.W {
			for i := range once.W[b] {
				if math.Abs(once.W[b][i]-twice.W[b][i]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSchemeErrors(t *testing.T) {
	if _, err := NewScheme(1, PerChannel); err == nil {
		t.Errorf("bad bit width accepted")
	}
	if _, err := NewScheme(8, Granularity(9)); err == nil {
		t.Errorf("unknown granularity accepted")
	}
	// A hand-built scheme bypassing the constructor still trips the deep
	// internal invariant.
	assertPanics(t, "gran", func() {
		s := Scheme{Bits: 8, Gran: Granularity(9)}
		net := snn.New(snn.Arch{2, 2}, snn.DefaultParams())
		s.QuantizeNetwork(net)
	})
}

// TestProgram pins quant.Program's contract: a nil scheme programs ideal
// weights and returns the test set itself; otherwise every configuration is
// replaced by its QuantizedClone, bit for bit, the items are shared, and
// the generated test set keeps its own weights.
func TestProgram(t *testing.T) {
	arch := snn.Arch{4, 3, 2}
	params := snn.DefaultParams()
	r := stats.NewRNG(5)
	ts := pattern.NewTestSet("random", arch, params)
	for c := 0; c < 3; c++ {
		cfg := snn.New(arch, params)
		for b := range cfg.W {
			for i := range cfg.W[b] {
				cfg.W[b][i] = -10 + 20*r.Float64()
			}
		}
		ts.AddItem(pattern.Item{Label: "rnd", ConfigIndex: ts.AddConfig(cfg), Pattern: snn.NewPattern(arch.Inputs()), Timesteps: 3, Repeat: 1})
	}
	before := make([]*snn.Network, len(ts.Configs))
	for i, cfg := range ts.Configs {
		before[i] = cfg.Clone()
	}

	if got := Program(ts, nil); got != ts {
		t.Errorf("nil scheme returned a copy, want the test set itself")
	}
	for _, gran := range []Granularity{PerNetwork, PerBoundary, PerChannel} {
		s := mustScheme(t, 3, gran)
		got := Program(ts, &s)
		if got == ts || len(got.Configs) != len(ts.Configs) {
			t.Fatalf("%v: got %p with %d configs, want a copy with %d", gran, got, len(got.Configs), len(ts.Configs))
		}
		if got.Name != ts.Name || !got.Arch.Equal(ts.Arch) || got.Params != ts.Params {
			t.Errorf("%v: header changed: %s %v %+v", gran, got.Name, got.Arch, got.Params)
		}
		if len(got.Items) != len(ts.Items) || &got.Items[0] != &ts.Items[0] {
			t.Errorf("%v: items not shared with the test set", gran)
		}
		for i, cfg := range got.Configs {
			want, _ := s.QuantizedClone(ts.Configs[i])
			if cfg == ts.Configs[i] {
				t.Fatalf("%v: config %d is the generated network, not a clone", gran, i)
			}
			for b := range want.W {
				for k, w := range want.W[b] {
					if math.Float64bits(cfg.W[b][k]) != math.Float64bits(w) {
						t.Fatalf("%v: config %d weight [%d][%d] = %g, QuantizedClone %g", gran, i, b, k, cfg.W[b][k], w)
					}
				}
			}
		}
	}
	for i, cfg := range ts.Configs {
		for b := range cfg.W {
			for k, w := range cfg.W[b] {
				if math.Float64bits(w) != math.Float64bits(before[i].W[b][k]) {
					t.Fatalf("config %d weight [%d][%d] changed to %g, was %g", i, b, k, w, before[i].W[b][k])
				}
			}
		}
	}
}

// TestProgramKeepsSharing: on test sets whose configurations share
// boundary arrays (generated suites, and a hand-built pair sharing an
// array under two network maxima), Program's weights equal each
// configuration's QuantizedClone bit for bit at every granularity, and a
// source array is programmed once per calibration it reads: per boundary
// and per channel once, per network once per network max |w|.
func TestProgramKeepsSharing(t *testing.T) {
	params := snn.DefaultParams()
	var sets []*pattern.TestSet
	for _, arch := range []snn.Arch{{10, 8, 6, 3}, {24, 16, 8, 4}} {
		for _, regime := range []core.Regime{core.NoVariation(), core.NegligibleVariation()} {
			g, err := core.NewGenerator(core.Options{Arch: arch, Params: params, Values: fault.PaperValues(params.Theta), Regime: regime})
			if err != nil {
				t.Fatal(err)
			}
			_, merged := g.GenerateAll()
			sets = append(sets, merged)
		}
	}
	pair := pattern.NewTestSet("pair", snn.Arch{3, 2, 2}, params)
	shared := []float64{0.3, -1.7, 2.2, 0.05, -0.6, 1.1}
	for _, deep := range []float64{4, 9} {
		cfg := snn.New(snn.Arch{3, 2, 2}, params)
		cfg.W[0] = shared
		cfg.FillBoundary(1, deep)
		pair.AddItem(pattern.Item{Label: "pair", ConfigIndex: pair.AddConfig(cfg), Pattern: snn.NewPattern(3), Timesteps: 2, Repeat: 1})
	}
	sets = append(sets, pair)

	type source struct {
		b      int
		w      *float64
		netMax float64
	}
	for _, ts := range sets {
		for _, gran := range []Granularity{PerNetwork, PerBoundary, PerChannel} {
			for _, bits := range []int{4, 8} {
				s := mustScheme(t, bits, gran)
				got := Program(ts, &s)
				programmed := make(map[source]*float64)
				arrays := make(map[*float64]bool)
				for i, cfg := range got.Configs {
					src := ts.Configs[i]
					want, _ := s.QuantizedClone(src)
					netMax := 0.0
					if gran == PerNetwork {
						netMax = src.MaxAbsWeight()
					}
					for b := range want.W {
						for k, w := range want.W[b] {
							if math.Float64bits(cfg.W[b][k]) != math.Float64bits(w) {
								t.Fatalf("%s %v: config %d weight [%d][%d] = %g, QuantizedClone %g", ts.Name, s, i, b, k, cfg.W[b][k], w)
							}
						}
						key, p := source{b: b, w: &src.W[b][0], netMax: netMax}, &cfg.W[b][0]
						if q, ok := programmed[key]; ok && q != p {
							t.Fatalf("%s %v: config %d boundary %d programmed its source array again", ts.Name, s, i, b)
						}
						programmed[key] = p
						arrays[p] = true
					}
				}
				if len(arrays) != len(programmed) {
					t.Errorf("%s %v: %d programmed arrays for %d (source array, calibration) pairs", ts.Name, s, len(arrays), len(programmed))
				}
				if ts == pair {
					if diff := &got.Configs[0].W[0][0] != &got.Configs[1].W[0][0]; diff != (gran == PerNetwork) {
						t.Errorf("%v: the shared array programs to two arrays: %t, want %t", s, diff, gran == PerNetwork)
					}
				}
			}
		}
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
