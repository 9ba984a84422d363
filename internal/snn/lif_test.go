package snn

import (
	"math"
	"testing"

	"neurotest/internal/stats"
)

// TestStep pins the one LIF definition in both reset modes, with the
// potential fully retained (leak 1) and fully forgotten (leak 0): the
// threshold compares strictly, a forced spike fires and resets whatever the
// potential, and v is the integrated value before any reset.
func TestStep(t *testing.T) {
	const th = 0.5
	cases := []struct {
		name  string
		leak  float64
		mp    float64
		in    float64
		force bool
		// v and fired are mode-independent; subNext is the potential
		// carried on under subtract reset (zero reset carries 0 after a
		// spike, v otherwise).
		v       float64
		fired   bool
		subNext float64
	}{
		{"leak 1, at threshold stays silent", 1, 0.25, 0.25, false, 0.5, false, 0.5},
		{"leak 1, above threshold fires", 1, 0.25, 0.5, false, 0.75, true, 0.25},
		{"leak 1, below threshold integrates", 1, -0.25, 0.5, false, 0.25, false, 0.25},
		{"leak 1, forced below threshold fires", 1, 0, 0.125, true, 0.125, true, -0.375},
		{"leak 0, at threshold stays silent", 0, 10, 0.5, false, 0.5, false, 0.5},
		{"leak 0, above threshold fires", 0, -10, 0.75, false, 0.75, true, 0.25},
		{"leak 0, forced at rest fires", 0, 10, 0, true, 0, true, -0.5},
	}
	for _, tc := range cases {
		for _, subtract := range []bool{false, true} {
			v, next, fired := Step(tc.mp, tc.in, tc.leak, th, subtract, tc.force)
			want := tc.v
			if tc.fired {
				want = 0
				if subtract {
					want = tc.subNext
				}
			}
			if math.Float64bits(v) != math.Float64bits(tc.v) || fired != tc.fired ||
				math.Float64bits(next) != math.Float64bits(want) {
				t.Errorf("%s (subtract=%v): Step = (%g, %g, %v), want (%g, %g, %v)",
					tc.name, subtract, v, next, fired, tc.v, want, tc.fired)
			}
			if fired && math.Float64bits(next) != math.Float64bits(Reset(v, th, subtract)) {
				t.Errorf("%s (subtract=%v): next %g is not Reset(v) = %g", tc.name, subtract, next, Reset(v, th, subtract))
			}
		}
	}
}

// replayPotentials is the reference Trace.V is checked against: the LIF
// recurrence written out independently of Step and run over the recorded
// weighted input sums, honouring each neuron's threshold override and
// forced spike. It returns the pre-reset potentials, indexed like Trace.V,
// and the spike trains the recurrence implies.
func replayPotentials(net *Network, tr *Trace, mods *Modifiers) ([][]float64, [][]uint64) {
	arch := net.Arch
	T := tr.Timesteps
	leak := net.Params.Leak
	subtract := net.Params.Reset == ResetSubtract
	v := make([][]float64, arch.Layers())
	x := make([][]uint64, arch.Layers())
	for k := 1; k < arch.Layers(); k++ {
		width := arch[k]
		v[k] = make([]float64, T*width)
		x[k] = make([]uint64, width)
		for j := 0; j < width; j++ {
			id := NeuronID{Layer: k, Index: j}
			th := net.Params.Theta
			if o, ok := mods.ThresholdOverride[id]; ok {
				th = o
			}
			var mp float64
			for t := 0; t < T; t++ {
				mp = leak*mp + tr.Y[k][t*width+j]
				v[k][t*width+j] = mp
				if mp > th || mods.ForceSpike[id] {
					x[k][j] |= 1 << uint(t)
					if subtract {
						mp -= th
					} else {
						mp = 0
					}
				}
			}
		}
	}
	return v, x
}

// TestTraceRecordsPreResetPotentials checks RunTrace's V bit for bit
// against the replay of its own Y, in both reset modes and input modes,
// with threshold overrides, forced spikes and a stuck synapse injected. A
// forced neuron must still record its integrated value, not its threshold
// or its reset.
func TestTraceRecordsPreResetPotentials(t *testing.T) {
	arch := Arch{8, 6, 5, 3}
	const T = 12
	forcedBelow := 0
	for _, reset := range []ResetMode{ResetZero, ResetSubtract} {
		for _, mode := range []InputMode{ApplyOnce, ApplyHold} {
			for seed := uint64(1); seed <= 4; seed++ {
				rng := stats.NewRNG(seed)
				params := DefaultParams()
				params.Reset = reset
				net := New(arch, params)
				for b := range net.W {
					scale := 1.5 / math.Sqrt(float64(arch[b]))
					for i := range net.W[b] {
						net.W[b][i] = (-1 + 2*rng.Float64()) * scale
					}
				}
				p := NewPattern(arch.Inputs())
				for i := range p {
					p[i] = rng.Float64() < 0.5
				}
				mods := &Modifiers{
					ThresholdOverride: map[NeuronID]float64{{Layer: 1, Index: 2}: 0.05, {Layer: 2, Index: 0}: 0.95},
					ForceSpike:        map[NeuronID]bool{{Layer: 2, Index: 3}: true, {Layer: 3, Index: 1}: true},
					StuckWeight:       map[SynapseID]float64{{Boundary: 0, Pre: 1, Post: 4}: 1},
				}
				for _, m := range []*Modifiers{{}, mods} {
					_, tr := NewSimulator(net).RunTrace(p, T, mode, m)
					wantV, wantX := replayPotentials(net, tr, m)
					for k := 1; k < arch.Layers(); k++ {
						for i, v := range tr.V[k] {
							if math.Float64bits(v) != math.Float64bits(wantV[k][i]) {
								t.Fatalf("%v mode %d seed %d layer %d t=%d neuron %d: V = %v, replay %v",
									reset, mode, seed, k, i/arch[k], i%arch[k], v, wantV[k][i])
							}
						}
						for j, x := range tr.X[k] {
							if x != wantX[k][j] {
								t.Fatalf("%v mode %d seed %d n[%d,%d]: train %b, replay %b", reset, mode, seed, k, j, x, wantX[k][j])
							}
						}
					}
					for id := range m.ForceSpike {
						for tt := 0; tt < T; tt++ {
							if tr.V[id.Layer][tt*arch[id.Layer]+id.Index] <= params.Theta {
								forcedBelow++
							}
						}
					}
				}
			}
		}
	}
	if forcedBelow == 0 {
		t.Fatal("fixture broken: no forced neuron was ever below threshold")
	}
}
