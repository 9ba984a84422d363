package snn

import (
	"math"
	"slices"
	"testing"

	"neurotest/internal/stats"
)

// applied returns a copy of net with off added to every weight, each sum
// rounded: the network variation.ErrorTensor.ApplyTo programs (variation
// imports snn, so the reference is written out here). A nil row of off
// leaves its boundary's weights as they are.
func applied(net *Network, off [][]float64) *Network {
	c := net.Clone()
	for b, row := range c.W {
		if off[b] == nil {
			continue
		}
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
// across rebinds of one simulator between two networks, and with a nil
// offset row, which leaves boundary 0 read as it is.
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
						}{{netA, offA}, {netB, offB}, {netA, append([][]float64{nil}, offA[1:]...)}, {netA, offA}} {
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
// another architecture and any offset not shaped like the network's
// weights (a nil row, which TestBindOffsetMatchesApplied covers, is no
// offset) — a short row would otherwise be summed silently short, since
// AddSumInto clamps to its shortest operand — and that a refused Bind
// leaves the simulator bound as before.
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

// layer1Sum is Run's layer-1 input for pattern p's spikes on net read
// through off (nil for none), summed the way Run sums it: row by row in
// neuron order, each row read through its offset row.
func layer1Sum(net *Network, off [][]float64, p Pattern) []float64 {
	n := net.Arch[1]
	y := make([]float64, n)
	for i, on := range p {
		if !on {
			continue
		}
		w := net.W[0][i*n : (i+1)*n]
		if off == nil {
			AddInto(y, w)
		} else {
			AddSumInto(y, w, off[0][i*n:(i+1)*n])
		}
	}
	return y
}

// dyadic rounds every weight and offset to a multiple of 2⁻⁸, so that
// every sum a run forms is exact and no order of addition can change it.
func dyadic(net *Network, off [][]float64) {
	for b := range net.W {
		for i := range net.W[b] {
			net.W[b][i] = math.Round(net.W[b][i]*256) / 256
			off[b][i] = math.Round(off[b][i]*256) / 256
		}
	}
}

// TestRunInputMatchesRun is the caller-supplied input's differential test,
// in both reset and input modes, under every modifier kind, including
// stuck and always-on synapses on boundary 0 and a forced input neuron.
//   - An input holding Run's own layer-1 sum and no offset rows returns
//     Run's result bit for bit, bound with and without an offset. A run
//     that forces an input neuron ignores such an input: a poisoned sum
//     changes no such run, while it does change runs that read it.
//   - An input holding the pattern's sum through boundary 0's offset and
//     the offset rows of FirstBoundaryReads, on a simulator bound without
//     boundary 0's offset, returns the result of Run on the network with
//     the whole offset written in. Forced rows then go on top of the sum,
//     which reorders additions, so forced runs are compared on dyadic
//     weights and offsets, whose sums are exact. Only the listed rows are
//     supplied: a run reading any other row would index a nil row.
func TestRunInputMatchesRun(t *testing.T) {
	const T = 12
	forced := &Modifiers{ForceSpike: map[NeuronID]bool{{Layer: 0, Index: 1}: true}}
	mods := []*Modifiers{nil, {
		ThresholdOverride: map[NeuronID]float64{{Layer: 1, Index: 2}: 0.05, {Layer: 2, Index: 0}: 0.95},
		ForceSpike:        map[NeuronID]bool{{Layer: 1, Index: 3}: true},
	}, {
		StuckWeight:     map[SynapseID]float64{{Boundary: 0, Pre: 1, Post: 4}: 1, {Boundary: 1, Pre: 0, Post: 2}: -2},
		AlwaysOnSynapse: map[SynapseID]bool{{Boundary: 0, Pre: 2, Post: 4}: true, {Boundary: 0, Pre: 3, Post: 1}: true},
	}, forced, {
		ForceSpike:      map[NeuronID]bool{{Layer: 0, Index: 0}: true, {Layer: 0, Index: 5}: true},
		StuckWeight:     map[SynapseID]float64{{Boundary: 0, Pre: 5, Post: 1}: -1, {Boundary: 0, Pre: 2, Post: 0}: 0.5},
		AlwaysOnSynapse: map[SynapseID]bool{{Boundary: 0, Pre: 0, Post: 3}: true, {Boundary: 0, Pre: 6, Post: 2}: true},
	}}
	forcesInput := func(m *Modifiers) bool {
		if m != nil {
			for id := range m.ForceSpike {
				if id.Layer == 0 {
					return true
				}
			}
		}
		return false
	}
	poisonMoved, offsetMoved := 0, 0
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
					// Run's own sum, no offset rows.
					for _, o := range [][][]float64{off, nil} {
						sim := NewSimulator(net)
						if err := sim.Bind(net, o); err != nil {
							t.Fatal(err)
						}
						ref := NewSimulator(net)
						if o != nil {
							ref = NewSimulator(applied(net, o))
						}
						in := &Input{Sum: layer1Sum(net, o, p)}
						for _, m := range mods {
							if got, want := sim.RunInput(in, p, T, mode, m), ref.Run(p, T, mode, m); !got.Equal(want) {
								t.Fatalf("%v %v mode %d seed %d offset %t mods %+v: RunInput %v, Run %v",
									arch, reset, mode, seed, o != nil, m, got, want)
							}
						}
						for j := range in.Sum {
							in.Sum[j] += 10 * net.Params.Theta
						}
						if got, want := sim.RunInput(in, p, T, mode, forced), ref.Run(p, T, mode, forced); !got.Equal(want) {
							t.Fatalf("%v seed %d: a forced input read the poisoned sum: %v, Run %v", arch, seed, got, want)
						}
						if !sim.RunInput(in, p, T, mode, nil).Equal(ref.Run(p, T, mode, nil)) {
							poisonMoved++
						}
					}
					// The pattern's sum and the offset rows, on random and on
					// dyadic weights.
					dnet, doff := net.Clone(), make([][]float64, len(off))
					for b := range off {
						doff[b] = slices.Clone(off[b])
					}
					dyadic(dnet, doff)
					for _, v := range []struct {
						net   *Network
						off   [][]float64
						exact bool
					}{{net, off, false}, {dnet, doff, true}} {
						deep := append([][]float64{nil}, v.off[1:]...)
						sim := NewSimulator(v.net)
						if err := sim.Bind(v.net, deep); err != nil {
							t.Fatal(err)
						}
						ref := NewSimulator(applied(v.net, v.off))
						n := arch[1]
						for _, m := range mods {
							if forcesInput(m) && !v.exact {
								continue
							}
							rows := make([][]float64, arch[0])
							for _, id := range m.FirstBoundaryReads(nil, arch) {
								rows[id.Pre] = v.off[0][id.Pre*n : (id.Pre+1)*n]
							}
							in := &Input{Sum: layer1Sum(v.net, v.off, p), Off: rows}
							got, want := sim.RunInput(in, p, T, mode, m), ref.Run(p, T, mode, m)
							if !got.Equal(want) {
								t.Fatalf("%v %v mode %d seed %d exact %t mods %+v: RunInput with rows %v, Run %v",
									arch, reset, mode, seed, v.exact, m, got, want)
							}
							if !got.Equal(NewSimulator(v.net).Run(p, T, mode, m)) {
								offsetMoved++
							}
						}
					}
				}
			}
		}
	}
	if poisonMoved == 0 || offsetMoved == 0 {
		t.Fatalf("fixture broken: %d runs read the poisoned sum, %d runs moved with the offset", poisonMoved, offsetMoved)
	}
}

// TestFirstBoundaryReads pins the boundary-0 synapses a run reads one at a
// time: every synapse out of a forced input neuron, then stuck and
// always-on synapses on boundary 0, merged into SynapseID order without
// repeats, appended after what dst holds; deeper synapses and neurons
// past the input layer read none.
func TestFirstBoundaryReads(t *testing.T) {
	arch := Arch{6, 3, 2}
	m := &Modifiers{
		ForceSpike:      map[NeuronID]bool{{Layer: 0, Index: 4}: true, {Layer: 1, Index: 0}: true, {Layer: 0, Index: 1}: true},
		StuckWeight:     map[SynapseID]float64{{Boundary: 0, Pre: 4, Post: 2}: 1, {Boundary: 0, Pre: 2, Post: 1}: 1, {Boundary: 1, Pre: 0, Post: 0}: 1},
		AlwaysOnSynapse: map[SynapseID]bool{{Boundary: 0, Pre: 2, Post: 1}: true, {Boundary: 0, Pre: 0, Post: 2}: true, {Boundary: 1, Pre: 1, Post: 1}: true},
	}
	head := SynapseID{Boundary: 9}
	got := m.FirstBoundaryReads([]SynapseID{head}, arch)
	want := []SynapseID{head, {0, 0, 2}, {0, 1, 0}, {0, 1, 1}, {0, 1, 2}, {0, 2, 1}, {0, 4, 0}, {0, 4, 1}, {0, 4, 2}}
	for k := 0; k < 20; k++ { // map order must not matter
		if !slices.Equal(got, want) {
			t.Fatalf("reads %v, want %v", got, want)
		}
		got = m.FirstBoundaryReads([]SynapseID{head}, arch)
	}
	var none *Modifiers
	if r := none.FirstBoundaryReads(nil, arch); len(r) != 0 {
		t.Errorf("nil modifiers read %v", r)
	}
	if r := (&Modifiers{ThresholdOverride: map[NeuronID]float64{{Layer: 1, Index: 0}: 1}}).FirstBoundaryReads(nil, arch); len(r) != 0 {
		t.Errorf("a threshold override reads %v", r)
	}
}
