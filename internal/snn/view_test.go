package snn

import (
	"math"
	"testing"

	"neurotest/internal/stats"
)

// applied returns a copy of net with off added to every weight, each sum
// rounded: the network variation.ErrorTensor.ApplyTo programs (variation
// imports snn, so the reference is written out here).
func applied(net *Network, off [][]float64) *Network {
	c := net.Clone()
	for b, row := range c.W {
		for i := range row {
			row[i] += off[b][i]
		}
	}
	return c
}

// randomView returns a random network of arch and a random offset shaped
// like its weights, both drawn from rng.
func randomView(arch Arch, reset ResetMode, rng *stats.RNG) (*Network, [][]float64) {
	params := DefaultParams()
	params.Reset = reset
	net := New(arch, params)
	off := make([][]float64, arch.Boundaries())
	for b := range net.W {
		scale := 1.5 / math.Sqrt(float64(arch[b]))
		for i := range net.W[b] {
			net.W[b][i] = (-1 + 2*rng.Float64()) * scale
		}
		off[b] = make([]float64, len(net.W[b]))
		rng.FillNorm(off[b], 0.3*params.Theta)
	}
	return net, off
}

// traceBitsEqual reports the first difference between two traces and
// results, bit for bit over X, Y and V, or "" when they agree.
func traceBitsEqual(got, want *Trace, gotRes, wantRes Result) string {
	if !gotRes.Equal(wantRes) {
		return "result differs"
	}
	for k := range want.X {
		for j, x := range want.X[k] {
			if got.X[k][j] != x {
				return "X differs"
			}
		}
		for i, y := range want.Y[k] {
			if math.Float64bits(got.Y[k][i]) != math.Float64bits(y) {
				return "Y differs"
			}
		}
		for i, v := range want.V[k] {
			if math.Float64bits(got.V[k][i]) != math.Float64bits(v) {
				return "V differs"
			}
		}
	}
	return ""
}

// TestBindOffsetMatchesApplied is the view's differential test: a
// simulator bound to a network through an offset records the same trace,
// bit for bit in X, Y and V, as a simulator of the network with the offset
// written into its weights — in both reset and input modes, under every
// modifier kind (a stuck and an always-on synapse share a post neuron), on
// layers narrower and wider than the AVX2 kernel's 16-element threshold,
// and across rebinds of one simulator between two networks.
func TestBindOffsetMatchesApplied(t *testing.T) {
	const T = 12
	mods := []*Modifiers{nil, {}, {
		ThresholdOverride: map[NeuronID]float64{{Layer: 1, Index: 2}: 0.05, {Layer: 2, Index: 0}: 0.95},
		ForceSpike:        map[NeuronID]bool{{Layer: 0, Index: 5}: true, {Layer: 2, Index: 3}: true},
		StuckWeight:       map[SynapseID]float64{{Boundary: 0, Pre: 1, Post: 4}: 1, {Boundary: 1, Pre: 0, Post: 2}: -2},
		AlwaysOnSynapse:   map[SynapseID]bool{{Boundary: 0, Pre: 2, Post: 4}: true, {Boundary: 1, Pre: 3, Post: 1}: true},
	}}
	moved := 0
	for _, arch := range []Arch{{8, 6, 5, 3}, {24, 19, 33, 4}} {
		for _, reset := range []ResetMode{ResetZero, ResetSubtract} {
			for _, mode := range []InputMode{ApplyOnce, ApplyHold} {
				for seed := uint64(1); seed <= 3; seed++ {
					rng := stats.NewRNG(seed)
					netA, offA := randomView(arch, reset, rng)
					netB, offB := randomView(arch, reset, rng)
					p := NewPattern(arch.Inputs())
					for i := range p {
						p[i] = rng.Float64() < 0.5
					}
					view := NewSimulator(netA)
					for _, m := range mods {
						for _, bind := range []struct {
							net *Network
							off [][]float64
						}{{netA, offA}, {netB, offB}, {netA, offA}} {
							if err := view.Bind(bind.net, bind.off); err != nil {
								t.Fatal(err)
							}
							res, got := view.RunTrace(p, T, mode, m)
							wantRes, want := NewSimulator(applied(bind.net, bind.off)).RunTrace(p, T, mode, m)
							if d := traceBitsEqual(got, want, res, wantRes); d != "" {
								t.Fatalf("%v %v mode %d seed %d mods %+v: %s from the applied network", arch, reset, mode, seed, m, d)
							}
							if r := view.Run(p, T, mode, m); !r.Equal(wantRes) {
								t.Fatalf("%v %v mode %d seed %d: Run %v, applied %v", arch, reset, mode, seed, r, wantRes)
							}
							_, plain := NewSimulator(bind.net).RunTrace(p, T, mode, m)
							if traceBitsEqual(got, plain, res, res) != "" {
								moved++
							}
						}
					}
					for _, net := range []*Network{netA, netB} {
						if err := view.Bind(net, nil); err != nil {
							t.Fatal(err)
						}
						for _, m := range mods {
							res, got := view.RunTrace(p, T, mode, m)
							wantRes, want := NewSimulator(net).RunTrace(p, T, mode, m)
							if d := traceBitsEqual(got, want, res, wantRes); d != "" {
								t.Fatalf("%v %v mode %d seed %d: nil offset: %s from the unbound simulator", arch, reset, mode, seed, d)
							}
						}
					}
				}
			}
		}
	}
	if moved == 0 {
		t.Fatal("fixture broken: no offset ever changed a trace")
	}
}

// TestBindRefusesMisshapedOffset pins that Bind refuses a network of
// another architecture and any offset not shaped exactly like the
// network's weights — a short row would otherwise be summed silently short,
// since AddSumInto clamps to its shortest operand — and that a refused
// Bind leaves the simulator bound as before.
func TestBindRefusesMisshapedOffset(t *testing.T) {
	arch := Arch{4, 3, 2}
	net, off := randomView(arch, ResetZero, stats.NewRNG(9))
	other, _ := randomView(Arch{4, 3, 3}, ResetZero, stats.NewRNG(10))
	sim := NewSimulator(net)
	if err := sim.Bind(net, off); err != nil {
		t.Fatal(err)
	}
	p := OnesPattern(arch.Inputs())
	want, wantTr := sim.RunTrace(p, 8, ApplyHold, nil)
	rows := func(rs ...[]float64) [][]float64 { return rs }
	bad := []struct {
		name string
		net  *Network
		off  [][]float64
	}{
		{"other architecture", other, nil},
		{"too few boundaries", net, rows(off[0])},
		{"too many boundaries", net, rows(off[0], off[1], off[1])},
		{"short row", net, rows(off[0], off[1][:len(off[1])-1])},
		{"long row", net, rows(append(append([]float64(nil), off[0]...), 0), off[1])},
		{"nil row", net, rows(off[0], nil)},
		{"empty non-nil offset", net, [][]float64{}},
		{"row of a 4-3-3 network", net, rows(off[0], make([]float64, 9))},
	}
	for _, b := range bad {
		if err := sim.Bind(b.net, b.off); err == nil {
			t.Errorf("%s: Bind accepted it", b.name)
		}
		got, gotTr := sim.RunTrace(p, 8, ApplyHold, nil)
		if d := traceBitsEqual(gotTr, wantTr, got, want); d != "" {
			t.Errorf("%s: refused Bind changed the simulator: %s", b.name, d)
		}
	}
}

// TestRunInputMatchesRun is the input sum's differential test: runs that
// share one InputSum — filled by the first of them, read by the rest —
// return Run's result bit for bit, bound with and without an offset, in
// both reset and input modes, under every modifier kind, including stuck
// and always-on synapses on boundary 0, whose corrections apply after the
// shared sum. A run that forces an input spike neither fills nor reads the
// buffer: a poisoned buffer changes no such run, while it does change runs
// that read it, and Reset makes the next run refill it.
func TestRunInputMatchesRun(t *testing.T) {
	const T = 12
	forced := &Modifiers{ForceSpike: map[NeuronID]bool{{Layer: 0, Index: 1}: true}}
	mods := []*Modifiers{nil, {
		ThresholdOverride: map[NeuronID]float64{{Layer: 1, Index: 2}: 0.05, {Layer: 2, Index: 0}: 0.95},
		ForceSpike:        map[NeuronID]bool{{Layer: 1, Index: 3}: true},
	}, {
		StuckWeight:     map[SynapseID]float64{{Boundary: 0, Pre: 1, Post: 4}: 1, {Boundary: 1, Pre: 0, Post: 2}: -2},
		AlwaysOnSynapse: map[SynapseID]bool{{Boundary: 0, Pre: 2, Post: 4}: true, {Boundary: 0, Pre: 3, Post: 1}: true},
	}, forced}
	poisonMoved := 0
	for _, arch := range []Arch{{8, 6, 5, 3}, {24, 19, 33, 4}} {
		for _, reset := range []ResetMode{ResetZero, ResetSubtract} {
			for _, mode := range []InputMode{ApplyOnce, ApplyHold} {
				for seed := uint64(1); seed <= 3; seed++ {
					rng := stats.NewRNG(seed)
					net, off := randomView(arch, reset, rng)
					p := NewPattern(arch.Inputs())
					for i := range p {
						p[i] = rng.Float64() < 0.5
					}
					for _, o := range [][][]float64{off, nil} {
						sim := NewSimulator(net)
						if err := sim.Bind(net, o); err != nil {
							t.Fatal(err)
						}
						ref := NewSimulator(net)
						if o != nil {
							ref = NewSimulator(applied(net, o))
						}
						var sum InputSum
						for _, m := range mods {
							want := ref.Run(p, T, mode, m)
							if got := sim.RunInput(&sum, p, T, mode, m); !got.Equal(want) {
								t.Fatalf("%v %v mode %d seed %d offset %t mods %+v: RunInput %v, Run %v",
									arch, reset, mode, seed, o != nil, m, got, want)
							}
							if m == forced && !sum.filled {
								continue // a forced input never fills the buffer
							}
							if !sum.filled {
								t.Fatalf("%v seed %d mods %+v: the run left the buffer empty", arch, seed, m)
							}
						}
						for j := range sum.y {
							sum.y[j] += 10 * net.Params.Theta
						}
						if got, want := sim.RunInput(&sum, p, T, mode, forced), ref.Run(p, T, mode, forced); !got.Equal(want) {
							t.Fatalf("%v seed %d: a forced input read the poisoned buffer: %v, Run %v", arch, seed, got, want)
						}
						if !sim.RunInput(&sum, p, T, mode, nil).Equal(ref.Run(p, T, mode, nil)) {
							poisonMoved++
						}
						sum.Reset()
						if got, want := sim.RunInput(&sum, p, T, mode, nil), ref.Run(p, T, mode, nil); !got.Equal(want) {
							t.Fatalf("%v seed %d: after Reset RunInput %v, Run %v", arch, seed, got, want)
						}
					}
				}
			}
		}
	}
	if poisonMoved == 0 {
		t.Fatal("fixture broken: no run ever read the poisoned buffer")
	}
}
