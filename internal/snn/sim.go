package snn

import (
	"cmp"
	"fmt"
	"slices"
)

// MaxTimesteps bounds the observation window so spike trains fit in a
// uint64 bitmask, which the incremental fault simulator relies on.
const MaxTimesteps = 64

// Pattern is one test pattern: a binary primary-input vector (the paper's
// I). True means the primary input delivers a spike to that input neuron.
type Pattern []bool

// NewPattern returns an all-zero pattern of width n.
func NewPattern(n int) Pattern { return make(Pattern, n) }

// OnesPattern returns an all-one pattern of width n.
func OnesPattern(n int) Pattern {
	p := make(Pattern, n)
	for i := range p {
		p[i] = true
	}
	return p
}

// Clone returns an independent copy of the pattern.
func (p Pattern) Clone() Pattern {
	c := make(Pattern, len(p))
	copy(c, p)
	return c
}

// CountOnes returns the number of asserted inputs.
func (p Pattern) CountOnes() int {
	n := 0
	for _, v := range p {
		if v {
			n++
		}
	}
	return n
}

// InputMode selects how a pattern drives the input layer over time.
type InputMode int

const (
	// ApplyOnce presents the pattern in timestep 0 only; later timesteps
	// have silent primary inputs. This is the mode the deterministic test
	// generation assumes.
	ApplyOnce InputMode = iota
	// ApplyHold presents the pattern in every timestep of the window.
	ApplyHold
)

// Modifiers describes behavioural deviations injected into a simulation run.
// The fault package maps each of its five fault models onto these hooks; the
// simulator itself stays fault-model agnostic.
//
// The zero value means "no deviation" (a good chip).
type Modifiers struct {
	// ThresholdOverride replaces the firing threshold of specific neurons
	// (ESF/HSF: θ → θ̂). Input-layer neurons have no threshold and must
	// not appear here.
	ThresholdOverride map[NeuronID]float64
	// ForceSpike makes specific neurons fire every timestep regardless of
	// their MP (NASF). Valid for any layer including the input layer.
	ForceSpike map[NeuronID]bool
	// StuckWeight replaces the effective weight of specific synapses
	// (SWF: w → ω̂) without mutating the network.
	StuckWeight map[SynapseID]float64
	// AlwaysOnSynapse makes specific synapses transmit a spike every
	// timestep (SASF): the synapse contributes its weight each step no
	// matter whether its presynaptic neuron fired.
	AlwaysOnSynapse map[SynapseID]bool
}

// Empty reports whether the modifier set injects nothing.
func (m *Modifiers) Empty() bool {
	return m == nil || (len(m.ThresholdOverride) == 0 && len(m.ForceSpike) == 0 &&
		len(m.StuckWeight) == 0 && len(m.AlwaysOnSynapse) == 0)
}

// MergeModifiers combines several modifier sets into one — a die carrying a
// cluster of physical defects. Later sets win on conflicting entries; nil
// and empty sets are skipped; merging nothing returns nil (a fault-free
// die). The inputs are not mutated.
func MergeModifiers(ms ...*Modifiers) *Modifiers {
	out := &Modifiers{}
	for _, m := range ms {
		if m.Empty() {
			continue
		}
		// Keyed map-to-map copies: keys within one input map are unique,
		// and "later sets win" resolves over the ms slice order, so the
		// randomized map iteration order cannot change the merged result.
		//lint:ignore interprocedural-determinism keyed copy; conflicts resolve over slice order, not map order
		for id, v := range m.ThresholdOverride {
			if out.ThresholdOverride == nil {
				out.ThresholdOverride = make(map[NeuronID]float64)
			}
			out.ThresholdOverride[id] = v
		}
		//lint:ignore interprocedural-determinism keyed copy; conflicts resolve over slice order, not map order
		for id, v := range m.ForceSpike {
			if out.ForceSpike == nil {
				out.ForceSpike = make(map[NeuronID]bool)
			}
			out.ForceSpike[id] = v
		}
		//lint:ignore interprocedural-determinism keyed copy; conflicts resolve over slice order, not map order
		for id, v := range m.StuckWeight {
			if out.StuckWeight == nil {
				out.StuckWeight = make(map[SynapseID]float64)
			}
			out.StuckWeight[id] = v
		}
		//lint:ignore interprocedural-determinism keyed copy; conflicts resolve over slice order, not map order
		for id, v := range m.AlwaysOnSynapse {
			if out.AlwaysOnSynapse == nil {
				out.AlwaysOnSynapse = make(map[SynapseID]bool)
			}
			out.AlwaysOnSynapse[id] = v
		}
	}
	if out.Empty() {
		return nil
	}
	return out
}

// Result is the observable outcome of a simulation: how many spikes each
// output neuron fired inside the observation window. Per Section 3.4 of the
// paper this vector *is* the chip output used for pass/fail comparison.
type Result struct {
	// SpikeCounts has one entry per output neuron.
	SpikeCounts []int
}

// Equal reports whether two results are indistinguishable on the tester.
func (r Result) Equal(o Result) bool {
	if len(r.SpikeCounts) != len(o.SpikeCounts) {
		return false
	}
	for i := range r.SpikeCounts {
		if r.SpikeCounts[i] != o.SpikeCounts[i] {
			return false
		}
	}
	return true
}

// Trace is the full internal activity of one simulation run, recorded by
// Simulator.RunTrace. The incremental fault simulator evaluates faults
// against a good trace instead of re-simulating the whole network, and the
// margin analysis reads its potentials.
type Trace struct {
	Timesteps int
	// X[k][i] is the spike train of neuron i in layer k: bit t is set when
	// the neuron fired in timestep t.
	X [][]uint64
	// Y[k] holds the weighted input sums of layer k (k >= 1), indexed
	// t*width+j: the paper's y^{k+1,j} at timestep t.
	Y [][]float64
	// V[k] holds the pre-reset membrane potentials of layer k (k >= 1),
	// indexed like Y: Step's v for neuron j at timestep t. A forced spike
	// records its integrated value too. The potential the neuron carried
	// into t+1 is V itself when bit t of X[k][j] is clear, else
	// Reset(V, th, subtract) with the neuron's threshold.
	V [][]float64
}

// Simulator runs time-stepped LIF simulation of one network. It is
// stateless between runs and safe to reuse; it is not safe for concurrent
// use because it reuses internal buffers.
//
// A simulator may read its network through a per-weight offset (see Bind):
// it then reads every weight as W[b][i] + offset[b][i], rounded, wherever it
// reads one — a die programmed with a configuration plus its frozen error
// tensor, simulated without writing the sum anywhere.
type Simulator struct {
	net *Network
	off [][]float64 // per-weight offset shaped like net.W, or nil
	// scratch state, allocated once per network shape
	mp     [][]float64
	spikes [][]bool
	y      [][]float64
	// dense per-layer views of the neuron-level modifier maps, rebuilt once
	// per run when the maps are non-empty (see projectMods): the hot sweep
	// then pays one slice read per neuron per timestep instead of two map
	// lookups — the difference shows on every escape/overkill chip run,
	// which simulates the whole network with a one-entry modifier set.
	thOverride [][]float64
	force      [][]bool
	// sorted projections of the synapse-level modifier maps, rebuilt once
	// per run (see projectMods). The sweep accumulates their corrections
	// into y with float64 additions, which are not associative — iterating
	// the maps directly would let two entries targeting the same
	// postsynaptic neuron sum in randomized map order and flip the last
	// bit of y between runs. Sorting by SynapseID fixes the summation
	// order, and slice iteration in the per-timestep loop is cheaper than
	// map iteration anyway.
	stuck    []stuckEntry
	alwaysOn []SynapseID
}

// stuckEntry is one projected StuckWeight modifier.
type stuckEntry struct {
	ID SynapseID
	W  float64
}

// synapseCmp orders SynapseIDs by (boundary, pre, post).
func synapseCmp(a, b SynapseID) int {
	if a.Boundary != b.Boundary {
		return cmp.Compare(a.Boundary, b.Boundary)
	}
	if a.Pre != b.Pre {
		return cmp.Compare(a.Pre, b.Pre)
	}
	return cmp.Compare(a.Post, b.Post)
}

// NewSimulator returns a simulator bound to net, with no offset. The
// network may be mutated between runs (weights only), and Bind rebinds the
// simulator to another network of the same architecture; a network of
// another architecture needs a new simulator.
func NewSimulator(net *Network) *Simulator {
	s := &Simulator{net: net}
	L := net.Arch.Layers()
	s.mp = make([][]float64, L)
	s.spikes = make([][]bool, L)
	s.y = make([][]float64, L)
	s.thOverride = make([][]float64, L)
	s.force = make([][]bool, L)
	for k := 0; k < L; k++ {
		s.mp[k] = make([]float64, net.Arch[k])
		s.spikes[k] = make([]bool, net.Arch[k])
		s.y[k] = make([]float64, net.Arch[k])
		s.thOverride[k] = make([]float64, net.Arch[k])
		s.force[k] = make([]bool, net.Arch[k])
	}
	return s
}

// projectMods fills the dense modifier views from the sparse neuron maps,
// projects the sparse synapse maps into sorted slices, and reports which
// dense views the sweep must consult. Filling is O(neurons + synapse
// mods·log) once per run, against O(neurons × timesteps) map lookups
// saved — and the sorted synapse order fixes the float64 summation order
// of stuck/always-on corrections (see the Simulator field comments).
func (s *Simulator) projectMods(mods *Modifiers, theta float64) (denseTh, denseForce bool) {
	s.stuck = s.stuck[:0]
	s.alwaysOn = s.alwaysOn[:0]
	if mods == nil {
		return false, false
	}
	if len(mods.ThresholdOverride) > 0 {
		denseTh = true
		for k := 1; k < len(s.thOverride); k++ {
			th := s.thOverride[k]
			for j := range th {
				th[j] = theta
			}
		}
		//lint:ignore interprocedural-determinism keyed writes into disjoint dense cells; iteration order cannot change the result
		for id, o := range mods.ThresholdOverride {
			s.thOverride[id.Layer][id.Index] = o
		}
	}
	if len(mods.ForceSpike) > 0 {
		denseForce = true
		for k := range s.force {
			f := s.force[k]
			for j := range f {
				f[j] = false
			}
		}
		//lint:ignore interprocedural-determinism keyed writes into disjoint dense cells; iteration order cannot change the result
		for id := range mods.ForceSpike {
			s.force[id.Layer][id.Index] = true
		}
	}
	//lint:ignore interprocedural-determinism collects entries for sorting below; order-insensitive by construction
	for id, w := range mods.StuckWeight {
		s.stuck = append(s.stuck, stuckEntry{ID: id, W: w})
	}
	slices.SortFunc(s.stuck, func(a, b stuckEntry) int { return synapseCmp(a.ID, b.ID) })
	//lint:ignore interprocedural-determinism collects entries for sorting below; order-insensitive by construction
	for id := range mods.AlwaysOnSynapse {
		s.alwaysOn = append(s.alwaysOn, id)
	}
	slices.SortFunc(s.alwaysOn, synapseCmp)
	return denseTh, denseForce
}

// Bind rebinds the simulator to net, read through offset: every run then
// sees weight W[b][i] + offset[b][i], the sum rounded, exactly as if that
// sum had been written into a copy of net. A nil offset reads net as it
// is, and so does a nil row of offset for its boundary. Neither is copied
// or written; both may change between runs. net must have the
// architecture the simulator was built for and offset, when non-nil, one
// row per boundary, each nil or exactly as long as the boundary's weights;
// Bind refuses anything else and leaves the simulator as it was.
func (s *Simulator) Bind(net *Network, offset [][]float64) error {
	if !net.Arch.Equal(s.net.Arch) {
		return fmt.Errorf("snn: cannot bind a %v network to a %v simulator", net.Arch, s.net.Arch)
	}
	if offset != nil {
		if len(offset) != net.Arch.Boundaries() {
			return fmt.Errorf("snn: cannot bind offset: %d rows, architecture %v has %d boundaries", len(offset), net.Arch, net.Arch.Boundaries())
		}
		for b, row := range offset {
			if want := net.W[b]; row != nil && len(row) != len(want) {
				return fmt.Errorf("snn: cannot bind offset: boundary %d has %d offsets, want %d", b, len(row), len(want))
			}
		}
	}
	s.net, s.off = net, offset
	return nil
}

// Network returns the network the simulator is bound to.
func (s *Simulator) Network() *Network { return s.net }

// reset zeroes the membrane potentials of every layer past the input. The
// spike buffers need no reset: a run writes each layer's before it reads
// it.
func (s *Simulator) reset() {
	for _, mp := range s.mp[1:] {
		clear(mp)
	}
}

// Run simulates the network for timesteps steps driven by pattern and
// returns the observable output. mods may be nil for a good chip.
func (s *Simulator) Run(pattern Pattern, timesteps int, mode InputMode, mods *Modifiers) Result {
	res, _ := s.run(nil, pattern, timesteps, mode, mods, false)
	return res
}

// RunTrace simulates like Run but additionally records the full activity
// trace (spike trains, weighted input sums and pre-reset potentials of
// every neuron).
func (s *Simulator) RunTrace(pattern Pattern, timesteps int, mode InputMode, mods *Modifiers) (Result, *Trace) {
	return s.run(nil, pattern, timesteps, mode, mods, true)
}

// Input is what a caller supplies of boundary 0 in place of the simulator
// summing it: the pattern's layer-1 input sum, and the offsets of the
// boundary-0 synapses a run reads one at a time (FirstBoundaryReads).
// Neither is copied or written.
type Input struct {
	// Sum is what boundary 0 delivers to each layer-1 neuron for the
	// pattern's spikes: the sum over the pattern's input neurons i of
	// weight (i, j), each read through its offset.
	Sum []float64
	// Off holds one offset row per input neuron, read wherever the run
	// reads a single boundary-0 synapse: a forced input neuron's row, a
	// stuck or an always-on synapse. Rows the run does not read may be
	// nil. A nil Off reads those synapses through the bound offset.
	Off [][]float64
}

// RunInput simulates like Run with layer 1's input taken from in. At every
// timestep whose input layer carries the pattern (t = 0, and every
// timestep under ApplyHold) layer 1 starts from in.Sum, and at every other
// timestep from zero. The row of each forced input neuron the pattern does
// not drive at that timestep is added on top, in neuron order, read
// through in.Off; stuck and always-on corrections on boundary 0 read
// in.Off too. The deeper boundaries and the membrane update run as in
// Run. Without Off no row can be added on top, so a run whose mods force
// an input neuron ignores in and runs as Run: a caller whose Sum is Run's
// own layer-1 sum then gets Run's result bit for bit. A nil in makes
// RunInput Run.
func (s *Simulator) RunInput(in *Input, pattern Pattern, timesteps int, mode InputMode, mods *Modifiers) Result {
	res, _ := s.run(in, pattern, timesteps, mode, mods, false)
	return res
}

// RunInputTrace simulates like RunInput and records the trace RunTrace
// records. A caller whose in.Sum is the pattern's own layer-1 sum, added
// row by row in neuron order as Run adds it, gets RunTrace's result and
// trace bit for bit.
func (s *Simulator) RunInputTrace(in *Input, pattern Pattern, timesteps int, mode InputMode, mods *Modifiers) (Result, *Trace) {
	return s.run(in, pattern, timesteps, mode, mods, true)
}

// FirstBoundaryReads appends to dst the boundary-0 synapses of arch a run
// under m reads one at a time, in SynapseID order without repeats: every
// synapse out of a forced input neuron, and each stuck or always-on
// synapse on boundary 0. These are the offsets RunInput reads from
// Input.Off; a nil m reads none.
func (m *Modifiers) FirstBoundaryReads(dst []SynapseID, arch Arch) []SynapseID {
	if m == nil {
		return dst
	}
	start := len(dst)
	//lint:ignore interprocedural-determinism collects entries for sorting below; order-insensitive by construction
	for id := range m.ForceSpike {
		if id.Layer == 0 {
			for j := 0; j < arch[1]; j++ {
				dst = append(dst, SynapseID{Boundary: 0, Pre: id.Index, Post: j})
			}
		}
	}
	//lint:ignore interprocedural-determinism collects entries for sorting below; order-insensitive by construction
	for id := range m.StuckWeight {
		if id.Boundary == 0 {
			dst = append(dst, id)
		}
	}
	//lint:ignore interprocedural-determinism collects entries for sorting below; order-insensitive by construction
	for id := range m.AlwaysOnSynapse {
		if id.Boundary == 0 {
			dst = append(dst, id)
		}
	}
	reads := dst[start:]
	slices.SortFunc(reads, synapseCmp)
	return dst[:start+len(slices.Compact(reads))]
}

func (s *Simulator) run(input *Input, pattern Pattern, timesteps int, mode InputMode, mods *Modifiers, wantTrace bool) (Result, *Trace) {
	arch := s.net.Arch
	if len(pattern) != arch.Inputs() {
		//lint:ignore no-panic mis-sized patterns are generator bugs, not runtime input (documented API contract)
		panic(fmt.Sprintf("snn: pattern width %d does not match input layer %d", len(pattern), arch.Inputs()))
	}
	if timesteps <= 0 || timesteps > MaxTimesteps {
		//lint:ignore no-panic observation windows are fixed by the generators; an invalid one is a harness bug
		panic(fmt.Sprintf("snn: timesteps must be in [1,%d], got %d", MaxTimesteps, timesteps))
	}
	s.reset()
	L := arch.Layers()
	theta := s.net.Params.Theta
	leak := s.net.Params.Leak
	subtract := s.net.Params.Reset == ResetSubtract
	denseTh, denseForce := s.projectMods(mods, theta)
	forcedInput := denseForce && slices.Contains(s.force[0], true)
	// Without offset rows a forced input's row cannot go on top of the
	// caller's sum: such a run sums layer 1 itself.
	if forcedInput && input != nil && input.Off == nil {
		input = nil
	}

	var trace *Trace
	if wantTrace {
		trace = &Trace{Timesteps: timesteps}
		trace.X = make([][]uint64, L)
		trace.Y = make([][]float64, L)
		trace.V = make([][]float64, L)
		for k := 0; k < L; k++ {
			trace.X[k] = make([]uint64, arch[k])
			if k > 0 {
				trace.Y[k] = make([]float64, timesteps*arch[k])
				trace.V[k] = make([]float64, timesteps*arch[k])
			}
		}
	}

	counts := make([]int, arch.Outputs())

	for t := 0; t < timesteps; t++ {
		// Input layer: relay primary inputs. Input neurons have no MP. The
		// layer changes only at t = 0 and, under ApplyOnce, at t = 1.
		in := s.spikes[0]
		active := t == 0 || mode == ApplyHold
		if t == 0 || (t == 1 && !active) {
			for i := range in {
				in[i] = active && pattern[i]
			}
			if denseForce {
				for i, forced := range s.force[0] {
					if forced {
						in[i] = true
					}
				}
			}
		}
		if wantTrace {
			for i, sp := range in {
				if sp {
					trace.X[0][i] |= 1 << uint(t)
				}
			}
		}

		// Hidden and output layers: integrate-and-fire sweep. Within a
		// timestep the wavefront traverses all layers, so one timestep
		// carries a primary-input spike to the primary outputs.
		for k := 1; k < L; k++ {
			nIn, nOut := arch[k-1], arch[k]
			y := s.y[k]
			w := s.net.W[k-1]
			var o []float64
			if s.off != nil {
				o = s.off[k-1]
			}
			pre := s.spikes[k-1]
			// offRow returns the offset row of pre neuron i as this
			// boundary is read: the caller's row on boundary 0 when the
			// caller supplies them, else the bound offset's.
			offRow := func(i int) []float64 {
				if k == 1 && input != nil && input.Off != nil {
					return input.Off[i]
				}
				if o == nil {
					return nil
				}
				return o[i*nOut : (i+1)*nOut]
			}
			if k == 1 && input != nil {
				// Layer 1 starts from the caller's sum while the input layer
				// carries the pattern; forced rows go on top.
				if active {
					copy(y, input.Sum)
				} else {
					clear(y)
				}
				if forcedInput {
					for i, forced := range s.force[0] {
						if forced && !(active && pattern[i]) {
							addRow(y, w[i*nOut:(i+1)*nOut], offRow(i))
						}
					}
				}
			} else {
				clear(y)
				// The loop is chosen once per layer: without an offset it is
				// the plain accumulation, with no per-row branch.
				if o == nil {
					for i := 0; i < nIn; i++ {
						if pre[i] {
							AddInto(y, w[i*nOut:(i+1)*nOut])
						}
					}
				} else {
					for i := 0; i < nIn; i++ {
						if pre[i] {
							AddSumInto(y, w[i*nOut:(i+1)*nOut], o[i*nOut:(i+1)*nOut])
						}
					}
				}
			}
			// Sparse corrections for stuck and always-on synapses, applied
			// in sorted SynapseID order so the float64 sums are
			// bit-reproducible.
			for _, e := range s.stuck {
				if e.ID.Boundary != k-1 {
					continue
				}
				if pre[e.ID.Pre] {
					y[e.ID.Post] += e.W - weight(w[e.ID.Pre*nOut:], offRow(e.ID.Pre), e.ID.Post)
				}
			}
			for _, id := range s.alwaysOn {
				if id.Boundary != k-1 {
					continue
				}
				// The synapse transmits a spike every timestep: when the
				// presynaptic neuron is silent the weight still arrives.
				if !pre[id.Pre] {
					y[id.Post] += weight(w[id.Pre*nOut:], offRow(id.Pre), id.Post)
				}
			}

			mp := s.mp[k]
			out := s.spikes[k]
			var vt []float64
			if wantTrace {
				vt = trace.V[k][t*nOut : (t+1)*nOut]
			}
			for j := 0; j < nOut; j++ {
				th := theta
				if denseTh {
					th = s.thOverride[k][j]
				}
				v, next, fired := Step(mp[j], y[j], leak, th, subtract, denseForce && s.force[k][j])
				mp[j] = next
				out[j] = fired
				if wantTrace {
					vt[j] = v
				}
			}
			if wantTrace {
				copy(trace.Y[k][t*nOut:(t+1)*nOut], y)
				for j, sp := range out {
					if sp {
						trace.X[k][j] |= 1 << uint(t)
					}
				}
			}
		}

		for j, sp := range s.spikes[L-1] {
			if sp {
				counts[j]++
			}
		}
	}

	return Result{SpikeCounts: counts}, trace
}

// weight returns weight j of a row as the simulator reads it: w[j] plus
// the offset o[j], rounded, or w[j] alone when there is no offset.
func weight(w, o []float64, j int) float64 {
	if o == nil {
		return w[j]
	}
	return w[j] + o[j]
}

// addRow accumulates one weight row into y, read through its offset row o
// when there is one.
func addRow(y, w, o []float64) {
	if o == nil {
		AddInto(y, w)
	} else {
		AddSumInto(y, w, o)
	}
}
