package snn

import (
	"math/bits"
	"testing"
	"testing/quick"

	"neurotest/internal/stats"
)

func tinyNet(t *testing.T) *Network {
	t.Helper()
	return New(Arch{2, 2, 1}, Params{Theta: 0.5, Leak: 0.9, WMax: 10})
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		p  Params
		ok bool
	}{
		{Params{Theta: 0.5, Leak: 0.9, WMax: 10}, true},
		{Params{Theta: 0, Leak: 0.9, WMax: 10}, false},
		{Params{Theta: 0.5, Leak: 1.5, WMax: 10}, false},
		{Params{Theta: 0.5, Leak: -0.1, WMax: 10}, false},
		{Params{Theta: 0.5, Leak: 0.9, WMax: 0.4}, false}, // ωmax must exceed θ
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.p, err, tc.ok)
		}
	}
	p := DefaultParams()
	if p.WMin() != -p.WMax {
		t.Errorf("WMin = %g", p.WMin())
	}
	if p.WMax != 20*p.Theta {
		t.Errorf("default ωmax = %g, paper uses 20θ", p.WMax)
	}
}

func TestSingleSpikePropagation(t *testing.T) {
	// One input spike with a super-threshold weight chain must reach the
	// output in the same timestep (sweep semantics).
	net := tinyNet(t)
	net.SetEntry(0, 0, 0, 1.0) // input0 -> hidden0
	net.SetEntry(1, 0, 0, 1.0) // hidden0 -> out0
	sim := NewSimulator(net)
	p := Pattern{true, false}
	res := sim.Run(p, 3, ApplyOnce, nil)
	if res.SpikeCounts[0] != 1 {
		t.Errorf("output spikes = %d, want 1", res.SpikeCounts[0])
	}
}

func TestSubThresholdNoSpike(t *testing.T) {
	net := tinyNet(t)
	net.SetEntry(0, 0, 0, 0.4) // below θ=0.5
	net.SetEntry(1, 0, 0, 1.0)
	sim := NewSimulator(net)
	res := sim.Run(Pattern{true, false}, 5, ApplyOnce, nil)
	if res.SpikeCounts[0] != 0 {
		t.Errorf("output spikes = %d, want 0", res.SpikeCounts[0])
	}
}

func TestThresholdIsStrict(t *testing.T) {
	// Eq. 1b: fire when MP > θ, not >=.
	net := tinyNet(t)
	net.SetEntry(0, 0, 0, 0.5) // exactly θ
	net.SetEntry(1, 0, 0, 1.0)
	sim := NewSimulator(net)
	res := sim.Run(Pattern{true, false}, 1, ApplyOnce, nil)
	if res.SpikeCounts[0] != 0 {
		t.Errorf("MP == θ fired; threshold must be strict")
	}
}

func TestLeakAccumulation(t *testing.T) {
	// Held sub-threshold input accumulates with leak: mp_t = 0.3·Σ leak^i.
	// With leak 0.9: 0.3, 0.57, 0.813 > 0.5 fires at t=2... actually 0.57
	// already exceeds θ=0.5 at t=1.
	net := tinyNet(t)
	net.SetEntry(0, 0, 0, 0.3)
	net.SetEntry(1, 0, 0, 10)
	sim := NewSimulator(net)
	_, trace := sim.RunTrace(Pattern{true, false}, 3, ApplyHold, nil)
	train := trace.X[1][0]
	// t=0: 0.3 (no), t=1: 0.57 (fire, reset), t=2: 0.3 (no)
	if train != 0b010 {
		t.Errorf("hidden train = %b, want 010", train)
	}
}

func TestResetAfterFire(t *testing.T) {
	net := tinyNet(t)
	net.SetEntry(0, 0, 0, 0.6)
	net.SetEntry(1, 0, 0, 10)
	sim := NewSimulator(net)
	_, trace := sim.RunTrace(Pattern{true, false}, 4, ApplyHold, nil)
	train := trace.X[1][0]
	// Fires every timestep: input held, 0.6 > 0.5 each step after reset.
	if train != 0b1111 {
		t.Errorf("train = %b, want 1111", train)
	}
}

func TestApplyOnceVersusHold(t *testing.T) {
	net := tinyNet(t)
	net.SetEntry(0, 0, 0, 1.0)
	net.SetEntry(1, 0, 0, 1.0)
	sim := NewSimulator(net)
	once := sim.Run(Pattern{true, false}, 4, ApplyOnce, nil)
	hold := sim.Run(Pattern{true, false}, 4, ApplyHold, nil)
	if once.SpikeCounts[0] != 1 {
		t.Errorf("ApplyOnce output = %d, want 1", once.SpikeCounts[0])
	}
	if hold.SpikeCounts[0] != 4 {
		t.Errorf("ApplyHold output = %d, want 4", hold.SpikeCounts[0])
	}
}

func TestInhibitionBlocksSpike(t *testing.T) {
	net := tinyNet(t)
	net.SetEntry(0, 0, 0, 1.0)
	net.SetEntry(0, 1, 0, -1.0)
	net.SetEntry(1, 0, 0, 1.0)
	sim := NewSimulator(net)
	res := sim.Run(Pattern{true, true}, 3, ApplyOnce, nil)
	if res.SpikeCounts[0] != 0 {
		t.Errorf("inhibited neuron fired: %v", res.SpikeCounts)
	}
}

func TestModifiersForceSpike(t *testing.T) {
	net := tinyNet(t)
	net.SetEntry(1, 0, 0, 1.0)
	sim := NewSimulator(net)
	mods := &Modifiers{ForceSpike: map[NeuronID]bool{{Layer: 1, Index: 0}: true}}
	res := sim.Run(Pattern{false, false}, 3, ApplyOnce, mods)
	// NASF neuron fires every timestep; output follows each time.
	if res.SpikeCounts[0] != 3 {
		t.Errorf("output = %d, want 3", res.SpikeCounts[0])
	}
}

func TestModifiersForceSpikeInputLayer(t *testing.T) {
	net := tinyNet(t)
	net.SetEntry(0, 0, 0, 1.0)
	net.SetEntry(1, 0, 0, 1.0)
	sim := NewSimulator(net)
	mods := &Modifiers{ForceSpike: map[NeuronID]bool{{Layer: 0, Index: 0}: true}}
	res := sim.Run(Pattern{false, false}, 2, ApplyOnce, mods)
	if res.SpikeCounts[0] != 2 {
		t.Errorf("output = %d, want 2", res.SpikeCounts[0])
	}
}

func TestModifiersThresholdOverride(t *testing.T) {
	net := tinyNet(t)
	net.SetEntry(0, 0, 0, 0.3) // below θ, above faulty θ̂
	net.SetEntry(1, 0, 0, 1.0)
	sim := NewSimulator(net)
	esf := &Modifiers{ThresholdOverride: map[NeuronID]float64{{Layer: 1, Index: 0}: 0.1}}
	if got := sim.Run(Pattern{true, false}, 1, ApplyOnce, esf).SpikeCounts[0]; got != 1 {
		t.Errorf("ESF neuron did not fire: %d", got)
	}
	hsf := &Modifiers{ThresholdOverride: map[NeuronID]float64{{Layer: 1, Index: 0}: 0.95}}
	net.SetEntry(0, 0, 0, 0.7) // above θ, below faulty θ̂
	if got := sim.Run(Pattern{true, false}, 1, ApplyOnce, hsf).SpikeCounts[0]; got != 0 {
		t.Errorf("HSF neuron fired: %d", got)
	}
}

func TestModifiersStuckWeight(t *testing.T) {
	net := tinyNet(t)
	net.SetEntry(0, 0, 0, 0.1)
	net.SetEntry(1, 0, 0, 1.0)
	sim := NewSimulator(net)
	mods := &Modifiers{StuckWeight: map[SynapseID]float64{{Boundary: 0, Pre: 0, Post: 0}: 1.0}}
	if got := sim.Run(Pattern{true, false}, 1, ApplyOnce, mods).SpikeCounts[0]; got != 1 {
		t.Errorf("stuck-high weight did not stimulate: %d", got)
	}
	// Stuck weight only acts when the presynaptic neuron fires.
	if got := sim.Run(Pattern{false, true}, 1, ApplyOnce, mods).SpikeCounts[0]; got != 0 {
		t.Errorf("stuck weight acted without presynaptic spike: %d", got)
	}
}

func TestModifiersAlwaysOnSynapse(t *testing.T) {
	net := tinyNet(t)
	net.SetEntry(0, 0, 0, 1.0)
	net.SetEntry(1, 0, 0, 1.0)
	sim := NewSimulator(net)
	mods := &Modifiers{AlwaysOnSynapse: map[SynapseID]bool{{Boundary: 0, Pre: 0, Post: 0}: true}}
	// No input at all: the synapse still delivers its weight every step.
	res := sim.Run(Pattern{false, false}, 3, ApplyOnce, mods)
	if res.SpikeCounts[0] != 3 {
		t.Errorf("output = %d, want 3", res.SpikeCounts[0])
	}
	// A zero-weight always-on synapse changes nothing.
	net.SetEntry(0, 0, 0, 0)
	res = sim.Run(Pattern{false, false}, 3, ApplyOnce, mods)
	if res.SpikeCounts[0] != 0 {
		t.Errorf("zero-weight SASF produced spikes: %v", res.SpikeCounts)
	}
}

func TestModifiersEmpty(t *testing.T) {
	var m *Modifiers
	if !m.Empty() {
		t.Errorf("nil modifiers not empty")
	}
	m = &Modifiers{}
	if !m.Empty() {
		t.Errorf("zero modifiers not empty")
	}
	m.ForceSpike = map[NeuronID]bool{{Layer: 1}: true}
	if m.Empty() {
		t.Errorf("non-zero modifiers empty")
	}
}

func TestResultEqual(t *testing.T) {
	a := Result{SpikeCounts: []int{1, 2, 3}}
	if !a.Equal(Result{SpikeCounts: []int{1, 2, 3}}) {
		t.Errorf("equal results differ")
	}
	if a.Equal(Result{SpikeCounts: []int{1, 2}}) {
		t.Errorf("different lengths equal")
	}
	if a.Equal(Result{SpikeCounts: []int{1, 2, 4}}) {
		t.Errorf("different counts equal")
	}
}

func TestTraceMatchesResult(t *testing.T) {
	net := New(Arch{3, 4, 2}, DefaultParams())
	rng := stats.NewRNG(11)
	for b := range net.W {
		for i := range net.W[b] {
			net.W[b][i] = -10 + 20*rng.Float64()
		}
	}
	sim := NewSimulator(net)
	p := Pattern{true, false, true}
	res, trace := sim.RunTrace(p, 6, ApplyOnce, nil)
	for i, train := range trace.X[len(trace.X)-1] {
		if got := bits.OnesCount64(train); got != res.SpikeCounts[i] {
			t.Errorf("output %d: trace holds %d spikes, result counts %d", i, got, res.SpikeCounts[i])
		}
	}
	// Input trains mirror the pattern at t=0 only.
	if trace.X[0][0] != 1 || trace.X[0][1] != 0 || trace.X[0][2] != 1 {
		t.Errorf("input trains wrong: %v", trace.X[0])
	}
}

func TestSimulatorPanics(t *testing.T) {
	net := tinyNet(t)
	sim := NewSimulator(net)
	assertPanics(t, "short pattern", func() { sim.Run(Pattern{true}, 1, ApplyOnce, nil) })
	assertPanics(t, "zero steps", func() { sim.Run(Pattern{true, false}, 0, ApplyOnce, nil) })
	assertPanics(t, "too many steps", func() { sim.Run(Pattern{true, false}, 65, ApplyOnce, nil) })
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

// Property: a spike implies the membrane crossed the (possibly overridden)
// threshold, and silent networks stay silent.
func TestQuickSpikeImpliesCharge(t *testing.T) {
	params := Params{Theta: 0.5, Leak: 0.9, WMax: 10}
	f := func(seed uint64, w0, w1 int8) bool {
		net := New(Arch{2, 2, 2}, params)
		rng := stats.NewRNG(seed)
		for b := range net.W {
			for i := range net.W[b] {
				net.W[b][i] = -10 + 20*rng.Float64()
			}
		}
		sim := NewSimulator(net)
		res, trace := sim.RunTrace(Pattern{true, true}, 5, ApplyOnce, nil)
		// Every hidden spike must coincide with a positive recorded y at
		// some step at or before it (charge must come from somewhere).
		for j := 0; j < 2; j++ {
			if trace.X[1][j] != 0 {
				any := false
				for tt := 0; tt < 5; tt++ {
					if trace.Y[1][tt*2+j] > 0 {
						any = true
					}
				}
				if !any {
					return false
				}
			}
		}
		for _, c := range res.SpikeCounts {
			if c < 0 || c > 5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: monotonicity — increasing a single excitatory weight never
// decreases the total charge delivered to its postsynaptic neuron in the
// first timestep.
func TestQuickFirstStepChargeMonotone(t *testing.T) {
	params := Params{Theta: 0.5, Leak: 0.9, WMax: 10}
	f := func(seed uint64, bump uint8) bool {
		net := New(Arch{3, 2, 2}, params)
		rng := stats.NewRNG(seed)
		for b := range net.W {
			for i := range net.W[b] {
				net.W[b][i] = -10 + 20*rng.Float64()
			}
		}
		p := Pattern{true, true, true}
		sim := NewSimulator(net)
		_, tr1 := sim.RunTrace(p, 1, ApplyOnce, nil)
		y1 := tr1.Y[1][0]
		net.SetEntry(0, 0, 0, net.Entry(0, 0, 0)+float64(bump%50)*0.1)
		sim2 := NewSimulator(net)
		_, tr2 := sim2.RunTrace(p, 1, ApplyOnce, nil)
		return tr2.Y[1][0] >= y1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNetworkHelpers(t *testing.T) {
	net := tinyNet(t)
	net.SetEntry(0, 1, 0, 3.5)
	if got := net.Entry(0, 1, 0); got != 3.5 {
		t.Errorf("Entry = %g", got)
	}
	net.Fill(2)
	if net.Entry(1, 0, 0) != 2 || net.Entry(0, 1, 1) != 2 {
		t.Errorf("Fill failed")
	}
	net.SetEntry(0, 1, 1, -4)
	c := net.Clone()
	c.SetEntry(0, 0, 0, 9)
	if net.Entry(0, 0, 0) == 9 {
		t.Errorf("clone aliases original")
	}
	if got := net.MaxAbsWeight(); got != 4 {
		t.Errorf("MaxAbsWeight = %g, want 4", got)
	}
}

func TestPatternHelpers(t *testing.T) {
	p := OnesPattern(4)
	if p.CountOnes() != 4 {
		t.Errorf("OnesPattern count = %d", p.CountOnes())
	}
	z := NewPattern(4)
	if z.CountOnes() != 0 {
		t.Errorf("NewPattern count = %d", z.CountOnes())
	}
	c := p.Clone()
	c[0] = false
	if !p[0] {
		t.Errorf("clone aliases original")
	}
}

func TestMergeModifiers(t *testing.T) {
	if MergeModifiers() != nil {
		t.Error("merging nothing should be a fault-free die")
	}
	if MergeModifiers(nil, &Modifiers{}) != nil {
		t.Error("merging empty sets should be a fault-free die")
	}
	a := &Modifiers{
		ForceSpike:        map[NeuronID]bool{{Layer: 1, Index: 0}: true},
		ThresholdOverride: map[NeuronID]float64{{Layer: 2, Index: 1}: 0.9},
	}
	b := &Modifiers{
		ForceSpike:      map[NeuronID]bool{{Layer: 1, Index: 2}: true},
		StuckWeight:     map[SynapseID]float64{{Boundary: 0, Pre: 0, Post: 0}: 1.5},
		AlwaysOnSynapse: map[SynapseID]bool{{Boundary: 1, Pre: 1, Post: 1}: true},
	}
	m := MergeModifiers(a, nil, b)
	if len(m.ForceSpike) != 2 || len(m.ThresholdOverride) != 1 ||
		len(m.StuckWeight) != 1 || len(m.AlwaysOnSynapse) != 1 {
		t.Fatalf("merged: %+v", m)
	}
	// Later sets win on conflicts; inputs stay untouched.
	c := &Modifiers{ThresholdOverride: map[NeuronID]float64{{Layer: 2, Index: 1}: 0.1}}
	if got := MergeModifiers(a, c).ThresholdOverride[NeuronID{Layer: 2, Index: 1}]; got != 0.1 {
		t.Errorf("conflict resolution: got %g, want 0.1", got)
	}
	if a.ThresholdOverride[NeuronID{Layer: 2, Index: 1}] != 0.9 || len(a.ForceSpike) != 1 {
		t.Errorf("input mutated: %+v", a)
	}
}
