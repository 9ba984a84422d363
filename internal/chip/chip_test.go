package chip

import (
	"math"
	"testing"
	"testing/quick"

	"neurotest/internal/snn"
	"neurotest/internal/stats"
	"neurotest/internal/variation"
)

func testConfig() Config {
	return Config{
		Arch:       snn.Arch{576, 256, 32, 10},
		Params:     snn.DefaultParams(),
		Core:       DefaultCoreShape(),
		WeightBits: 8,
	}
}

// coresOf returns the cores serving one boundary, in tiling order.
func coresOf(c *Chip, boundary int) []*Core {
	var out []*Core
	for i := 0; i < c.NumCores(); i++ {
		if c.Core(i).Boundary == boundary {
			out = append(out, c.Core(i))
		}
	}
	return out
}

func TestCoreTiling(t *testing.T) {
	c := mustNew(t, testConfig(), 1)
	// Boundary 0: 576x256 → 3x1 cores of 256x256. Boundary 1: 256x32 → 1.
	// Boundary 2: 32x10 → 1. Total 5.
	if got := c.NumCores(); got != 5 {
		t.Errorf("NumCores = %d, want 5", got)
	}
	if got := len(coresOf(c, 0)); got != 3 {
		t.Errorf("boundary 0 has %d cores, want 3", got)
	}
	covered := 0
	for _, core := range coresOf(c, 0) {
		covered += core.Axons * core.Neurons
	}
	if covered != 576*256 {
		t.Errorf("boundary 0 cores cover %d synapses, want %d", covered, 576*256)
	}
}

func TestCoreTilingPartial(t *testing.T) {
	cfg := testConfig()
	cfg.Arch = snn.Arch{300, 300, 5}
	c := mustNew(t, cfg, 1)
	// 300x300 → 2x2 cores (256+44 each way); 300x5 → 2x1.
	if got := len(coresOf(c, 0)); got != 4 {
		t.Errorf("boundary 0 cores = %d, want 4", got)
	}
	if got := len(coresOf(c, 1)); got != 2 {
		t.Errorf("boundary 1 cores = %d, want 2", got)
	}
	for _, core := range coresOf(c, 0) {
		if core.Axons <= 0 || core.Neurons <= 0 {
			t.Errorf("degenerate core %+v", core)
		}
	}
}

func TestProgramReadbackIdealLevels(t *testing.T) {
	// The six weight levels of generated configurations must survive
	// program/readback exactly (per-channel scale calibration).
	cfg := testConfig()
	cfg.Arch = snn.Arch{4, 3, 2}
	c := mustNew(t, cfg, 1)
	net := snn.New(cfg.Arch, cfg.Params)
	for i := 0; i < cfg.Arch[0]; i++ {
		net.W[0][i*cfg.Arch[1]] = 10
		net.W[0][i*cfg.Arch[1]+1] = -10
	}
	net.SetEntry(0, 0, 2, 0.275)
	net.FillBoundary(1, 5)
	if err := c.Program(net); err != nil {
		t.Fatalf("Program: %v", err)
	}
	got, err := c.EffectiveNetwork()
	if err != nil {
		t.Fatalf("EffectiveNetwork: %v", err)
	}
	for b := range net.W {
		for i, want := range net.W[b] {
			if math.Abs(got.W[b][i]-want) > 1e-9 {
				t.Errorf("boundary %d weight %d: %g, want %g", b, i, got.W[b][i], want)
			}
		}
	}
}

func TestProgramArchMismatch(t *testing.T) {
	c := mustNew(t, testConfig(), 1)
	net := snn.New(snn.Arch{3, 2}, snn.DefaultParams())
	if err := c.Program(net); err == nil {
		t.Errorf("foreign architecture accepted")
	}
}

func TestUnprogrammedChip(t *testing.T) {
	c := mustNew(t, testConfig(), 1)
	if _, err := c.EffectiveNetwork(); err == nil {
		t.Errorf("readback of unprogrammed chip succeeded")
	}
	if _, err := c.Apply(snn.NewPattern(576), 4, nil); err == nil {
		t.Errorf("apply to unprogrammed chip succeeded")
	}
}

func TestQuantizationGranularityIsPerChannel(t *testing.T) {
	// Two columns with very different magnitudes must quantize on
	// independent grids: the small-magnitude column keeps its precision.
	cfg := testConfig()
	cfg.Arch = snn.Arch{2, 2}
	cfg.WeightBits = 4
	c := mustNew(t, cfg, 1)
	net := snn.New(cfg.Arch, cfg.Params)
	net.SetEntry(0, 0, 0, 0.275)
	net.SetEntry(0, 1, 1, -10)
	if err := c.Program(net); err != nil {
		t.Fatal(err)
	}
	got, _ := c.EffectiveNetwork()
	if math.Abs(got.Entry(0, 0, 0)-0.275) > 1e-9 {
		t.Errorf("column 0 lost precision: %g", got.Entry(0, 0, 0))
	}
	if math.Abs(got.Entry(0, 1, 1)+10) > 1e-9 {
		t.Errorf("column 1 lost its max: %g", got.Entry(0, 1, 1))
	}
}

func TestProgramWithVariation(t *testing.T) {
	cfg := testConfig()
	cfg.Arch = snn.Arch{50, 50}
	cfg.Variation = variation.Model{Sigma: 0.1}
	c := mustNew(t, cfg, 77)
	net := snn.New(cfg.Arch, cfg.Params)
	net.Fill(5)
	if err := c.Program(net); err != nil {
		t.Fatal(err)
	}
	got, _ := c.EffectiveNetwork()
	var w stats.Welford
	for _, x := range got.W[0] {
		w.Add(x)
	}
	if m := w.Mean(); math.Abs(m-5) > 0.02 {
		t.Errorf("varied mean = %g", m)
	}
	if sd := w.StdDev(); math.Abs(sd-0.1) > 0.02 {
		t.Errorf("varied stddev = %g", sd)
	}
	// Reprogramming draws fresh noise.
	if err := c.Program(net); err != nil {
		t.Fatal(err)
	}
	got2, _ := c.EffectiveNetwork()
	same := true
	for i := range got.W[0] {
		if got.W[0][i] != got2.W[0][i] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("reprogramming reused identical noise")
	}
}

func TestVariationClampsToPhysicalRange(t *testing.T) {
	// Unlike the behavioural CUT model, the physical chip cannot store
	// weights beyond its range.
	cfg := testConfig()
	cfg.Arch = snn.Arch{50, 50}
	cfg.Variation = variation.Model{Sigma: 2}
	c := mustNew(t, cfg, 3)
	net := snn.New(cfg.Arch, cfg.Params)
	net.Fill(10)
	if err := c.Program(net); err != nil {
		t.Fatal(err)
	}
	got, _ := c.EffectiveNetwork()
	for _, w := range got.W[0] {
		if w > 10 || w < -10 {
			t.Fatalf("stored weight %g outside physical range", w)
		}
	}
}

func TestApplyEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.Arch = snn.Arch{2, 2, 1}
	c := mustNew(t, cfg, 1)
	net := snn.New(cfg.Arch, cfg.Params)
	net.SetEntry(0, 0, 0, 1)
	net.SetEntry(1, 0, 0, 1)
	if err := c.Program(net); err != nil {
		t.Fatal(err)
	}
	res, err := c.Apply(snn.Pattern{true, false}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpikeCounts[0] != 1 {
		t.Errorf("output = %v, want [1]", res.SpikeCounts)
	}
	// Inject a NASF through the chip's test interface.
	mods := &snn.Modifiers{ForceSpike: map[snn.NeuronID]bool{{Layer: 1, Index: 1}: true}}
	res, err = c.Apply(snn.NewPattern(2), 3, mods)
	if err != nil {
		t.Fatal(err)
	}
	// The forced neuron has zero outgoing weight, so the output is silent.
	if res.SpikeCounts[0] != 0 {
		t.Errorf("output = %v, want [0]", res.SpikeCounts)
	}
}

func TestNewRejects(t *testing.T) {
	cases := map[string]Config{
		"bad arch": {Arch: snn.Arch{1}, Params: snn.DefaultParams(), Core: DefaultCoreShape(), WeightBits: 8},
		"bad core": {Arch: snn.Arch{2, 2}, Params: snn.DefaultParams(), Core: CoreShape{}, WeightBits: 8},
		"bad bits": {Arch: snn.Arch{2, 2}, Params: snn.DefaultParams(), Core: DefaultCoreShape(), WeightBits: 1},
	}
	for name, cfg := range cases {
		if _, err := New(cfg, 1); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadbackMatchesQuantizerQuick(t *testing.T) {
	// Property: program/readback error never exceeds half a per-channel
	// step, for random weights.
	f := func(seed uint64) bool {
		cfg := testConfig()
		cfg.Arch = snn.Arch{6, 5}
		c := mustNew(t, cfg, 1)
		net := snn.New(cfg.Arch, cfg.Params)
		rng := stats.NewRNG(seed)
		for b := range net.W {
			for i := range net.W[b] {
				net.W[b][i] = -10 + 20*rng.Float64()
			}
		}
		if err := c.Program(net); err != nil {
			return false
		}
		got, err := c.EffectiveNetwork()
		if err != nil {
			return false
		}
		nOut := cfg.Arch[1]
		for j := 0; j < nOut; j++ {
			maxAbs := 0.0
			for i := 0; i < cfg.Arch[0]; i++ {
				if a := math.Abs(net.W[0][i*nOut+j]); a > maxAbs {
					maxAbs = a
				}
			}
			halfStep := maxAbs / 127 / 2
			for i := 0; i < cfg.Arch[0]; i++ {
				if math.Abs(got.W[0][i*nOut+j]-net.W[0][i*nOut+j]) > halfStep+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func mustNew(t *testing.T, cfg Config, seed uint64) *Chip {
	t.Helper()
	c, err := New(cfg, seed)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// TestReprogramRewritesEveryWeight pins the reprogramming contract
// documented on Program: rewriting the configuration leaves nothing of the
// previous one behind, so a reprogrammed chip reads back exactly what a
// fresh chip programmed once with the same configuration holds. (Permanent
// defects are snn.Modifiers, never chip state, so they are out of
// Program's reach by construction — internal/repair depends on both halves
// of this contract.)
func TestReprogramRewritesEveryWeight(t *testing.T) {
	cfg := testConfig()
	cfg.Arch = snn.Arch{12, 8, 4}
	rng := stats.NewRNG(99)
	random := func() *snn.Network {
		net := snn.New(cfg.Arch, cfg.Params)
		for b := range net.W {
			for i := range net.W[b] {
				net.W[b][i] = 2*rng.Float64() - 1
			}
		}
		return net
	}
	first, second := random(), random()
	c := mustNew(t, cfg, 1)
	for _, net := range []*snn.Network{first, second} {
		if err := c.Program(net); err != nil {
			t.Fatal(err)
		}
	}
	fresh := mustNew(t, cfg, 1)
	if err := fresh.Program(second); err != nil {
		t.Fatal(err)
	}
	got, _ := c.EffectiveNetwork()
	want, _ := fresh.EffectiveNetwork()
	for b := range want.W {
		for i := range want.W[b] {
			if got.W[b][i] != want.W[b][i] {
				t.Fatalf("effective weight [%d][%d] after reprogram = %v, want %v",
					b, i, got.W[b][i], want.W[b][i])
			}
		}
	}
}

// TestSpareReservationTiling pins the spare-provisioning geometry: reserving
// lines shrinks the tiling stride and every core reports its repair budget.
func TestSpareReservationTiling(t *testing.T) {
	cfg := testConfig()
	cfg.Arch = snn.Arch{8, 6, 4}
	cfg.Core = CoreShape{Axons: 8, Neurons: 8}
	cfg.SpareAxons, cfg.SpareNeurons = 2, 2
	c := mustNew(t, cfg, 1)
	// Stride 6: boundary 0 (8x6) → two row stripes of one column tile;
	// boundary 1 (6x4) → one core.
	if got := len(coresOf(c, 0)); got != 2 {
		t.Fatalf("boundary 0 cores = %d, want 2", got)
	}
	top, tail := coresOf(c, 0)[0], coresOf(c, 0)[1]
	if top.Axons != 6 || top.SpareAxons != 2 || top.Neurons != 6 || top.SpareNeurons != 2 {
		t.Errorf("top stripe geometry %+v", top)
	}
	if tail.Axons != 2 || tail.SpareAxons != 6 {
		t.Errorf("tail stripe must inherit extra spares: %+v", tail)
	}
	b1 := coresOf(c, 1)[0]
	if b1.Axons != 6 || b1.Neurons != 4 || b1.SpareAxons != 2 || b1.SpareNeurons != 4 {
		t.Errorf("boundary 1 geometry %+v", b1)
	}
	// Reservation must not change what the chip computes, only where
	// weights sit: programming round-trips identically.
	net := snn.New(cfg.Arch, cfg.Params)
	for b := range net.W {
		for i := range net.W[b] {
			net.W[b][i] = float64(i%7) / 7
		}
	}
	if err := c.Program(net); err != nil {
		t.Fatal(err)
	}
	plain := mustNew(t, Config{Arch: cfg.Arch, Params: cfg.Params, Core: cfg.Core, WeightBits: cfg.WeightBits}, 1)
	if err := plain.Program(net); err != nil {
		t.Fatal(err)
	}
	eff, _ := c.EffectiveNetwork()
	effPlain, _ := plain.EffectiveNetwork()
	for b := range eff.W {
		for i := range eff.W[b] {
			if eff.W[b][i] != effPlain.W[b][i] {
				t.Fatalf("spare reservation changed effective weight [%d][%d]", b, i)
			}
		}
	}
}

func TestSpareReservationRejects(t *testing.T) {
	bad := []Config{
		func() Config { c := testConfig(); c.SpareAxons = -1; return c }(),
		func() Config { c := testConfig(); c.SpareNeurons = -2; return c }(),
		func() Config { c := testConfig(); c.SpareAxons = 256; return c }(),
		func() Config { c := testConfig(); c.SpareNeurons = 300; return c }(),
	}
	for i, cfg := range bad {
		if _, err := New(cfg, 1); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
